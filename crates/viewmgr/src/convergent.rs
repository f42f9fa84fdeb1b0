//! The convergent view manager (§6.3): "only guarantees the eventual
//! correctness of the view but not the correctness of intermediate view
//! states."
//!
//! Per update it applies the cheap, *uncompensated* estimate — the delta
//! rule evaluated entirely at the current source state — which is wrong
//! exactly when updates intertwine. A correction pass (on flush, and every
//! `correction_every` updates) re-evaluates the view at the current state
//! and emits the diff, which is what makes the view converge. The merge
//! process runs these action lists in pass-through mode.

use crate::materialized::MaterializedView;
use crate::protocol::{
    QueryAnswer, QueryRequest, QueryToken, ViewManager, VmError, VmEvent, VmOutput,
};
use mvc_core::{ActionList, ConsistencyLevel, UpdateId, ViewId};
use mvc_relational::ViewDef;
use std::collections::BTreeMap;

/// What an outstanding query was for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Per-update uncompensated estimate.
    Estimate(UpdateId),
    /// Full-view correction pass.
    Correction(UpdateId),
}

/// Convergent view manager.
#[derive(Debug)]
pub struct ConvergentVm {
    id: ViewId,
    mat: MaterializedView,
    correction_every: usize,
    since_correction: usize,
    last_update: UpdateId,
    inflight: BTreeMap<QueryToken, Kind>,
    next_token: u64,
    /// Estimates applied since the last correction (stats: how much drift
    /// the correction pass had to fix is observable via emitted deltas).
    estimates: u64,
    corrections: u64,
}

impl ConvergentVm {
    pub fn new(id: ViewId, def: ViewDef, correction_every: usize) -> Self {
        ConvergentVm {
            id,
            mat: MaterializedView::new(def),
            correction_every: correction_every.max(1),
            since_correction: 0,
            last_update: UpdateId::ZERO,
            inflight: BTreeMap::new(),
            next_token: 1,
            estimates: 0,
            corrections: 0,
        }
    }

    pub fn view(&self) -> &mvc_relational::Relation {
        self.mat.view()
    }

    pub fn corrections(&self) -> u64 {
        self.corrections
    }

    fn issue(&mut self, kind: Kind, request: QueryRequest, out: &mut Vec<VmOutput>) {
        let token = QueryToken(self.next_token);
        self.next_token += 1;
        self.inflight.insert(token, kind);
        out.push(VmOutput::Query { token, request });
    }

    fn issue_correction(&mut self, out: &mut Vec<VmOutput>) {
        if self.last_update.is_zero() {
            return;
        }
        self.since_correction = 0;
        self.issue(
            Kind::Correction(self.last_update),
            QueryRequest::EvalCurrent {
                core: self.mat.def().core.clone(),
            },
            out,
        );
    }
}

impl ViewManager for ConvergentVm {
    fn id(&self) -> ViewId {
        self.id
    }

    fn def(&self) -> &ViewDef {
        self.mat.def()
    }

    fn level(&self) -> ConsistencyLevel {
        ConsistencyLevel::Convergent
    }

    fn handle(&mut self, event: VmEvent) -> Result<Vec<VmOutput>, VmError> {
        let mut out = Vec::new();
        match event {
            VmEvent::Update(u) => {
                self.last_update = u.id;
                let changes = u.changes_for(self.mat.base_relations());
                if !changes.is_empty() {
                    self.issue(
                        Kind::Estimate(u.id),
                        QueryRequest::DeltaCurrent {
                            core: self.mat.def().core.clone(),
                            changes,
                        },
                        &mut out,
                    );
                }
                self.since_correction += 1;
                if self.since_correction >= self.correction_every {
                    self.issue_correction(&mut out);
                }
            }
            VmEvent::Answer { token, answer } => {
                let Some(kind) = self.inflight.remove(&token) else {
                    return Err(VmError::UnknownToken(token));
                };
                match (kind, answer) {
                    (Kind::Estimate(uid), QueryAnswer::Delta(core_delta)) => {
                        self.estimates += 1;
                        let view_delta = self.mat.apply_core_delta(&core_delta)?;
                        out.push(VmOutput::Action(ActionList::single(
                            self.id, uid, view_delta,
                        )));
                    }
                    (Kind::Correction(uid), QueryAnswer::Rows(core, _)) => {
                        self.corrections += 1;
                        let view_delta = self.mat.replace_core(core)?;
                        if !view_delta.is_empty() {
                            out.push(VmOutput::Action(ActionList::single(
                                self.id, uid, view_delta,
                            )));
                        }
                    }
                    _ => return Err(VmError::AnswerKindMismatch(token)),
                }
            }
            VmEvent::Flush => {
                // One final correction makes the view exact at quiescence.
                self.issue_correction(&mut out);
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
        self.inflight.is_empty()
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

    fn drive(vm: &mut ConvergentVm, c: &SourceCluster, ev: VmEvent) -> Vec<ActionList<Delta>> {
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

    /// The uncompensated estimate double counts when updates intertwine:
    /// both estimates computed after both commits each see the join row.
    #[test]
    fn estimates_double_count_then_correction_fixes() {
        let mut c = cluster();
        let def = view(&c);
        let mut vm = ConvergentVm::new(ViewId(1), def, 1000);

        // Both updates commit before either estimate query is answered.
        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        let u2 = c
            .execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();
        let o1 = vm.handle(VmEvent::Update(numbered(u1))).unwrap();
        let o2 = vm.handle(VmEvent::Update(numbered(u2))).unwrap();
        let mut actions = Vec::new();
        for o in o1.into_iter().chain(o2) {
            if let VmOutput::Query { token, request } = o {
                let answer = crate::protocol::answer_query(&c, &request).unwrap();
                for r in vm.handle(VmEvent::Answer { token, answer }).unwrap() {
                    if let VmOutput::Action(al) = r {
                        actions.push(al);
                    }
                }
            }
        }
        // Each estimate saw the other side already present → both added
        // the join row: the view now holds TWO copies (the anomaly).
        let total: i64 = actions
            .iter()
            .map(|a| a.payload.net(&tuple![1, 2, 3]))
            .sum();
        assert_eq!(total, 2, "uncompensated double count");
        assert_eq!(vm.view().multiplicity(&tuple![1, 2, 3]), 2);

        // Flush-time correction repairs it.
        let fixes = drive(&mut vm, &c, VmEvent::Flush);
        assert_eq!(fixes.len(), 1);
        assert_eq!(fixes[0].payload.net(&tuple![1, 2, 3]), -1);
        assert_eq!(vm.view().multiplicity(&tuple![1, 2, 3]), 1);
    }

    #[test]
    fn no_intertwining_estimates_are_exact() {
        let mut c = cluster();
        let def = view(&c);
        let mut vm = ConvergentVm::new(ViewId(1), def, 1000);
        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        let a1 = drive(&mut vm, &c, VmEvent::Update(numbered(u1)));
        assert!(a1[0].payload.is_empty());
        let u2 = c
            .execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();
        let a2 = drive(&mut vm, &c, VmEvent::Update(numbered(u2)));
        assert_eq!(a2[0].payload.net(&tuple![1, 2, 3]), 1);
        // correction finds nothing to fix
        let fixes = drive(&mut vm, &c, VmEvent::Flush);
        assert!(fixes.is_empty());
        assert_eq!(vm.corrections(), 1);
    }

    #[test]
    fn periodic_corrections_triggered_by_count() {
        let mut c = cluster();
        let def = view(&c);
        let mut vm = ConvergentVm::new(ViewId(1), def, 2);
        for i in 0..4i64 {
            let u = c
                .execute(SourceId(0), vec![WriteOp::insert("R", tuple![i, i])])
                .unwrap();
            drive(&mut vm, &c, VmEvent::Update(numbered(u)));
        }
        assert_eq!(vm.corrections(), 2, "every 2 updates");
    }
}
