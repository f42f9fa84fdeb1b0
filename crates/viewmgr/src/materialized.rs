//! Local materialization kept by view managers: the SPJ-core mirror and,
//! for aggregate views, the derived aggregate layer.

use mvc_relational::{
    diff, eval::aggregate, maintain::aggregate_delta, Delta, EvalError, Relation, RelationName,
    ViewDef,
};
use std::collections::BTreeSet;

/// A view manager's local copy of its view: the core-output relation and
/// (for aggregate views) the aggregate output. Converts core-level deltas
/// — what source queries return — into view-level deltas — what action
/// lists carry.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    def: ViewDef,
    /// `def.base_relations()`, built once: managers filter every update
    /// by it.
    base: BTreeSet<RelationName>,
    core: Relation,
    view: Relation,
}

impl MaterializedView {
    /// Empty materialization (view at `ss_0` when sources start empty).
    pub fn new(def: ViewDef) -> Self {
        let core = Relation::shared(def.core.output_schema.clone());
        let view = Relation::shared(def.schema.clone());
        let base = def.base_relations();
        MaterializedView {
            def,
            base,
            core,
            view,
        }
    }

    /// Materialization from explicit initial core contents.
    pub fn from_core(def: ViewDef, core: Relation) -> Result<Self, EvalError> {
        let view = if def.is_aggregate() {
            aggregate(&def, &core)?
        } else {
            core.clone()
        };
        let base = def.base_relations();
        Ok(MaterializedView {
            def,
            base,
            core,
            view,
        })
    }

    pub fn def(&self) -> &ViewDef {
        &self.def
    }

    /// The distinct base relations the view reads.
    pub fn base_relations(&self) -> &BTreeSet<RelationName> {
        &self.base
    }

    pub fn core(&self) -> &Relation {
        &self.core
    }

    pub fn view(&self) -> &Relation {
        &self.view
    }

    /// Apply a core-level delta; returns the view-level delta an action
    /// list should carry. For SPJ views they are the same thing; for
    /// aggregate views affected groups are recomputed.
    pub fn apply_core_delta(&mut self, core_delta: &Delta) -> Result<Delta, EvalError> {
        let view_delta = if self.def.is_aggregate() {
            aggregate_delta(&self.def, &self.core, core_delta)?
        } else {
            core_delta.clone()
        };
        core_delta.apply_to(&mut self.core)?;
        view_delta.apply_to(&mut self.view)?;
        Ok(view_delta)
    }

    /// Replace the core wholesale (periodic refresh); returns the
    /// view-level delta.
    pub fn replace_core(&mut self, new_core: Relation) -> Result<Delta, EvalError> {
        let new_view = if self.def.is_aggregate() {
            aggregate(&self.def, &new_core)?
        } else {
            new_core.clone()
        };
        let view_delta = diff(&self.view, &new_view);
        self.core = new_core;
        self.view = new_view;
        Ok(view_delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_relational::{tuple, AggFunc, Catalog, Expr, Schema, ViewDef};

    fn catalog() -> Catalog {
        Catalog::new().with("R", Schema::ints(&["a", "b"]))
    }

    fn spj(cat: &Catalog) -> ViewDef {
        ViewDef::builder("V").from("R").build(cat).unwrap()
    }

    fn agg(cat: &Catalog) -> ViewDef {
        ViewDef::builder("A")
            .from("R")
            .group_by(Expr::named("a"))
            .aggregate(AggFunc::Count, Expr::True, "n")
            .build(cat)
            .unwrap()
    }

    #[test]
    fn spj_delta_passthrough() {
        let cat = catalog();
        let mut m = MaterializedView::new(spj(&cat));
        let mut d = Delta::new();
        d.insert(tuple![1, 2]);
        let vd = m.apply_core_delta(&d).unwrap();
        assert_eq!(vd, d);
        assert!(m.view().contains(&tuple![1, 2]));
        assert!(m.core().contains(&tuple![1, 2]));
    }

    #[test]
    fn aggregate_delta_derived() {
        let cat = catalog();
        let mut m = MaterializedView::new(agg(&cat));
        let mut d = Delta::new();
        d.insert(tuple![1, 10]);
        let vd = m.apply_core_delta(&d).unwrap();
        assert_eq!(vd.net(&tuple![1, 1]), 1, "group (1, count=1) appears");
        let mut d2 = Delta::new();
        d2.insert(tuple![1, 20]);
        let vd2 = m.apply_core_delta(&d2).unwrap();
        assert_eq!(vd2.net(&tuple![1, 1]), -1);
        assert_eq!(vd2.net(&tuple![1, 2]), 1);
        assert!(m.view().contains(&tuple![1, 2]));
    }

    #[test]
    fn replace_core_diffs() {
        let cat = catalog();
        let mut m = MaterializedView::new(spj(&cat));
        let mut d = Delta::new();
        d.insert(tuple![1, 2]);
        m.apply_core_delta(&d).unwrap();

        let mut fresh = Relation::new(Schema::ints(&["a", "b"]));
        fresh.insert(tuple![3, 4]).unwrap();
        let vd = m.replace_core(fresh).unwrap();
        assert_eq!(vd.net(&tuple![1, 2]), -1);
        assert_eq!(vd.net(&tuple![3, 4]), 1);
        assert!(m.view().contains(&tuple![3, 4]));
    }

    #[test]
    fn from_core_initializes_aggregate_layer() {
        let cat = catalog();
        let mut core = Relation::new(Schema::ints(&["a", "b"]));
        core.insert(tuple![1, 10]).unwrap();
        core.insert(tuple![1, 20]).unwrap();
        let m = MaterializedView::from_core(agg(&cat), core).unwrap();
        assert!(m.view().contains(&tuple![1, 2]));
    }
}
