//! The complete-N view manager (§6.3): processes exactly `N` source
//! updates at a time, bringing the view to a consistent state after every
//! N-th update. Deltas are exact (as-of queries over the batch range), so
//! every N-th source state is hit deterministically — stronger than
//! `Strong`, weaker than `Complete`.

use crate::materialized::MaterializedView;
use crate::protocol::{
    NumberedUpdate, QueryAnswer, QueryRequest, QueryToken, ViewManager, VmError, VmEvent, VmOutput,
};
use mvc_core::{ActionList, ConsistencyLevel, UpdateId, ViewId};
use mvc_relational::{Delta, RelationName, ViewDef};
use mvc_source::GlobalSeq;
use std::collections::{BTreeMap, VecDeque};

/// Complete-N manager.
#[derive(Debug)]
pub struct CompleteNVm {
    id: ViewId,
    mat: MaterializedView,
    n: u32,
    /// Updates accumulated toward the current batch.
    batch: VecDeque<NumberedUpdate>,
    /// Query in flight for a full batch: (token, first, last).
    outstanding: Option<(QueryToken, UpdateId, UpdateId)>,
    /// Source state the view currently reflects (batch lower bound) —
    /// robust against batch members with out-of-line seqs (e.g. the
    /// pseudo-updates of a dynamic view install).
    last_covered: Option<GlobalSeq>,
    next_token: u64,
}

impl CompleteNVm {
    pub fn new(id: ViewId, def: ViewDef, n: u32) -> Self {
        CompleteNVm {
            id,
            mat: MaterializedView::new(def),
            n: n.max(1),
            batch: VecDeque::new(),
            outstanding: None,
            last_covered: None,
            next_token: 1,
        }
    }

    pub fn view(&self) -> &mvc_relational::Relation {
        self.mat.view()
    }

    fn maybe_issue(&mut self, force: bool, out: &mut Vec<VmOutput>) {
        if self.outstanding.is_some() || self.batch.is_empty() {
            return;
        }
        if !force && self.batch.len() < self.n as usize {
            return;
        }
        let take = self.batch.len().min(self.n as usize);
        let members: Vec<NumberedUpdate> = self.batch.drain(..take).collect();
        let first = members.first().expect("non-empty").id;
        let last = members.last().expect("non-empty").id;
        let old = self
            .last_covered
            .unwrap_or_else(|| GlobalSeq(members.first().expect("non-empty").seq().0 - 1));
        let new = members
            .iter()
            .map(|m| m.seq())
            .max()
            .expect("non-empty")
            .max(old);
        self.last_covered = Some(new);
        let base = self.mat.base_relations();
        let mut changes: BTreeMap<RelationName, Delta> = BTreeMap::new();
        for m in &members {
            for (rel, d) in m.changes_for(base) {
                changes.entry(rel).or_default().merge(&d);
            }
        }
        let token = QueryToken(self.next_token);
        self.next_token += 1;
        self.outstanding = Some((token, first, last));
        out.push(VmOutput::Query {
            token,
            request: QueryRequest::DeltaAsOf {
                core: self.mat.def().core.clone(),
                old,
                new,
                changes,
            },
        });
    }
}

impl ViewManager for CompleteNVm {
    fn id(&self) -> ViewId {
        self.id
    }

    fn def(&self) -> &ViewDef {
        self.mat.def()
    }

    fn level(&self) -> ConsistencyLevel {
        ConsistencyLevel::CompleteN(self.n)
    }

    fn handle(&mut self, event: VmEvent) -> Result<Vec<VmOutput>, VmError> {
        let mut out = Vec::new();
        match event {
            VmEvent::Update(u) => {
                self.batch.push_back(u);
                self.maybe_issue(false, &mut out);
            }
            VmEvent::Answer { token, answer } => {
                let Some((expected, first, last)) = self.outstanding.take() else {
                    return Err(VmError::UnknownToken(token));
                };
                if expected != token {
                    return Err(VmError::UnknownToken(token));
                }
                let QueryAnswer::Delta(core_delta) = answer else {
                    return Err(VmError::AnswerKindMismatch(token));
                };
                let view_delta = self.mat.apply_core_delta(&core_delta)?;
                out.push(VmOutput::Action(ActionList::batch(
                    self.id, first, last, view_delta,
                )));
                self.maybe_issue(false, &mut out);
            }
            VmEvent::Flush => {
                self.maybe_issue(true, &mut out);
            }
        }
        Ok(out)
    }

    fn initialize(&mut self, provider: &dyn mvc_relational::StateProvider) -> Result<(), VmError> {
        let core = mvc_relational::eval_core(&self.mat.def().core, provider)?;
        self.mat = MaterializedView::from_core(self.mat.def().clone(), core)?;
        // batches after installation start from the load state
        self.last_covered = None;
        Ok(())
    }

    fn is_idle(&self) -> bool {
        self.batch.is_empty() && self.outstanding.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_relational::{tuple, Schema};
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

    fn drive(vm: &mut CompleteNVm, c: &SourceCluster, ev: VmEvent) -> Vec<ActionList<Delta>> {
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
    fn batches_of_exactly_n() {
        let mut c = cluster();
        let def = ViewDef::builder("V").from("R").build(c.catalog()).unwrap();
        let mut vm = CompleteNVm::new(ViewId(1), def, 3);
        let mut emitted = Vec::new();
        for i in 1..=7i64 {
            let u = c
                .execute(SourceId(0), vec![WriteOp::insert("R", tuple![i, i])])
                .unwrap();
            emitted.extend(drive(&mut vm, &c, VmEvent::Update(numbered(u))));
        }
        assert_eq!(emitted.len(), 2, "two full batches of 3");
        assert_eq!(
            (emitted[0].first, emitted[0].last),
            (UpdateId(1), UpdateId(3))
        );
        assert_eq!(
            (emitted[1].first, emitted[1].last),
            (UpdateId(4), UpdateId(6))
        );
        assert_eq!(emitted[0].payload.distinct_len(), 3);
        // the 7th waits; flush forces it
        let tail = drive(&mut vm, &c, VmEvent::Flush);
        assert_eq!(tail.len(), 1);
        assert_eq!((tail[0].first, tail[0].last), (UpdateId(7), UpdateId(7)));
        assert!(vm.is_idle());
    }

    #[test]
    fn batch_delta_is_exact_with_cancelling_updates() {
        let mut c = cluster();
        let def = ViewDef::builder("V").from("R").build(c.catalog()).unwrap();
        let mut vm = CompleteNVm::new(ViewId(1), def, 2);
        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 1])])
            .unwrap();
        let u2 = c
            .execute(SourceId(0), vec![WriteOp::delete("R", tuple![1, 1])])
            .unwrap();
        let mut emitted = drive(&mut vm, &c, VmEvent::Update(numbered(u1)));
        emitted.extend(drive(&mut vm, &c, VmEvent::Update(numbered(u2))));
        assert_eq!(emitted.len(), 1);
        assert!(
            emitted[0].payload.is_empty(),
            "insert+delete within batch cancels"
        );
        assert!(vm.view().is_empty());
    }
}
