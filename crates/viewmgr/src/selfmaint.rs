//! The self-maintaining view manager (§1.1, refs \[4, 11\]): "Auxiliary
//! views may also be stored to guarantee view self-maintainability."
//!
//! This manager keeps local copies of every base relation its view reads
//! (the auxiliary views), updated purely from the integrator's update
//! stream. Deltas are then computed entirely locally with the exact
//! multilinear delta rule — **no queries back to the sources at all** —
//! which makes it complete *and* immune to intertwining by construction,
//! at the storage cost of the auxiliary copies.
//!
//! Because the integrator filters tuple-level-irrelevant updates
//! (ref \[7\]), the auxiliary copies may lack tuples that can never
//! contribute to any derivation; the delta rule is unaffected (such
//! tuples pass no occurrence-local selection, so they join into nothing).

use crate::join_mirror::occurrence_schema;
use crate::materialized::MaterializedView;
use crate::protocol::{NumberedUpdate, ViewManager, VmError, VmEvent, VmOutput};
use mvc_core::{ActionList, ConsistencyLevel, ViewId};
use mvc_relational::{maintain::spj_delta, Database, Relation, ViewDef};

/// Self-maintaining view manager.
#[derive(Debug)]
pub struct SelfMaintVm {
    id: ViewId,
    mat: MaterializedView,
    /// Auxiliary copies of the base relations.
    aux: Database,
}

impl SelfMaintVm {
    /// The base-relation schemas come from the catalog snapshot inside
    /// the view definition's core (join schema per occurrence).
    pub fn new(id: ViewId, def: ViewDef) -> Self {
        let mut aux = Database::new();
        for (k, rel) in def.core.sources.iter().enumerate() {
            if aux.relation(rel).is_none() {
                aux.insert_relation(rel.clone(), Relation::new(occurrence_schema(&def.core, k)));
            }
        }
        SelfMaintVm {
            id,
            mat: MaterializedView::new(def),
            aux,
        }
    }

    pub fn view(&self) -> &Relation {
        self.mat.view()
    }

    /// Size of the auxiliary storage, in tuples (the cost of
    /// self-maintainability).
    pub fn aux_tuples(&self) -> u64 {
        self.aux
            .names()
            .filter_map(|n| self.aux.relation(n))
            .map(Relation::len)
            .sum()
    }
}

impl ViewManager for SelfMaintVm {
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
                out.push(VmOutput::Action(self.process(&u)?));
            }
            VmEvent::Answer { token, .. } => {
                return Err(VmError::UnknownToken(token)); // never queries
            }
            VmEvent::Flush => {}
        }
        Ok(out)
    }

    fn initialize(&mut self, provider: &dyn mvc_relational::StateProvider) -> Result<(), VmError> {
        for name in self.aux.names().cloned().collect::<Vec<_>>() {
            let rel = provider
                .fetch(&name)
                .ok_or_else(|| mvc_relational::EvalError::MissingRelation(name.clone()))
                .map_err(VmError::Eval)?;
            self.aux.insert_relation(name, rel.into_owned());
        }
        let core = mvc_relational::eval_core(&self.mat.def().core.clone(), &self.aux)?;
        self.mat = MaterializedView::from_core(self.mat.def().clone(), core)?;
        Ok(())
    }

    fn is_idle(&self) -> bool {
        true // every update is processed synchronously
    }
}

impl SelfMaintVm {
    fn process(
        &mut self,
        u: &NumberedUpdate,
    ) -> Result<ActionList<mvc_relational::Delta>, VmError> {
        let changes = u.changes_for(&self.mat.def().base_relations());
        // New auxiliary state.
        let mut new_aux = self.aux.clone();
        for (rel, d) in &changes {
            new_aux
                .apply(rel, d)
                .map_err(mvc_relational::EvalError::from)?;
        }
        let core_delta = spj_delta(&self.mat.def().core, &self.aux, &new_aux, &changes)?;
        self.aux = new_aux;
        let view_delta = self.mat.apply_core_delta(&core_delta)?;
        Ok(ActionList::single(self.id, u.id, view_delta))
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

    fn numbered(u: SourceUpdate) -> NumberedUpdate {
        NumberedUpdate::from_owned(UpdateId(u.seq.0), u)
    }

    fn action(vm: &mut SelfMaintVm, u: SourceUpdate) -> ActionList<mvc_relational::Delta> {
        let outs = vm.handle(VmEvent::Update(numbered(u))).unwrap();
        match outs.into_iter().next().unwrap() {
            VmOutput::Action(al) => al,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn maintains_join_without_queries() {
        let mut c = cluster();
        let def = ViewDef::builder("V")
            .from("R")
            .from("S")
            .join_on("R.b", "S.b")
            .project(["R.a", "R.b", "S.c"])
            .build(c.catalog())
            .unwrap();
        let mut vm = SelfMaintVm::new(ViewId(1), def);

        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        let a1 = action(&mut vm, u1);
        assert!(a1.payload.is_empty());
        assert_eq!(vm.aux_tuples(), 1);

        let u2 = c
            .execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();
        let a2 = action(&mut vm, u2);
        assert_eq!(a2.payload.net(&tuple![1, 2, 3]), 1);
        assert!(vm.view().contains(&tuple![1, 2, 3]));
        assert_eq!(vm.aux_tuples(), 2);

        let u3 = c
            .execute(SourceId(0), vec![WriteOp::delete("R", tuple![1, 2])])
            .unwrap();
        let a3 = action(&mut vm, u3);
        assert_eq!(a3.payload.net(&tuple![1, 2, 3]), -1);
        assert!(vm.view().is_empty());
    }

    #[test]
    fn supports_self_joins_and_aggregates() {
        use mvc_relational::{AggFunc, Expr};
        let mut c = cluster();
        // self-join
        let sj = ViewDef::builder("SJ")
            .from("R")
            .from("R")
            .join_on("R.b", "R#2.a")
            .build(c.catalog())
            .unwrap();
        let mut vm = SelfMaintVm::new(ViewId(1), sj);
        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        action(&mut vm, u1);
        let u2 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![2, 9])])
            .unwrap();
        let a2 = action(&mut vm, u2);
        assert_eq!(a2.payload.net(&tuple![1, 2, 2, 9]), 1);

        // aggregate
        let agg = ViewDef::builder("A")
            .from("S")
            .group_by(Expr::named("b"))
            .aggregate(AggFunc::Count, Expr::True, "n")
            .build(c.catalog())
            .unwrap();
        let mut vm2 = SelfMaintVm::new(ViewId(2), agg);
        let u3 = c
            .execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();
        let a3 = action(&mut vm2, u3);
        assert_eq!(a3.payload.net(&tuple![2, 1]), 1);
    }

    #[test]
    fn never_queries_and_always_idle() {
        let mut c = cluster();
        let def = ViewDef::builder("V").from("R").build(c.catalog()).unwrap();
        let mut vm = SelfMaintVm::new(ViewId(1), def);
        assert!(vm.is_idle());
        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        let outs = vm.handle(VmEvent::Update(numbered(u1))).unwrap();
        assert!(outs.iter().all(|o| matches!(o, VmOutput::Action(_))));
        assert!(vm.is_idle());
        assert!(vm.handle(VmEvent::Flush).unwrap().is_empty());
    }
}
