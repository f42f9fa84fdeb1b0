//! The system's view registry: which views exist, which manager kind runs
//! each, and the §6.1 partitioning into merge groups.

use mvc_core::{ConsistencyLevel, Partitioning, ViewId};
use mvc_relational::{RelationName, ViewDef};
use mvc_source::SourceCluster;
use mvc_viewmgr::{
    CompleteNVm, CompleteVm, ConvergentVm, EcaVm, PeriodicVm, SelfMaintVm, StrobeVm, ViewManager,
    VmError,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Which view-manager implementation maintains a view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ManagerKind {
    /// Exact per-update deltas via MVCC as-of queries.
    Complete,
    /// ECA (ref \[16\]): per-update completeness over current-state-only
    /// sources via eager compensating queries (2-way SPJ views).
    Eca,
    /// Self-maintaining (refs \[4, 11\]): local auxiliary base copies, no
    /// source queries at all.
    SelfMaintaining,
    Strobe,
    /// Full refresh every `period` relevant updates.
    Periodic {
        period: usize,
    },
    /// Uncompensated estimates with a correction pass every `correction_every`.
    Convergent {
        correction_every: usize,
    },
    /// Exact batches of `n`.
    CompleteN {
        n: u32,
    },
}

impl ManagerKind {
    /// The consistency level this kind declares to the merge process.
    pub fn level(self) -> ConsistencyLevel {
        match self {
            ManagerKind::Complete => ConsistencyLevel::Complete,
            ManagerKind::Eca => ConsistencyLevel::Complete,
            ManagerKind::SelfMaintaining => ConsistencyLevel::Complete,
            ManagerKind::Strobe => ConsistencyLevel::Strong,
            ManagerKind::Periodic { .. } => ConsistencyLevel::Strong,
            ManagerKind::Convergent { .. } => ConsistencyLevel::Convergent,
            ManagerKind::CompleteN { n } => ConsistencyLevel::CompleteN(n),
        }
    }

    /// Instantiate the manager.
    pub fn build(self, id: ViewId, def: ViewDef) -> Result<Box<dyn ViewManager>, VmError> {
        Ok(match self {
            ManagerKind::Complete => Box::new(CompleteVm::new(id, def)),
            ManagerKind::Eca => Box::new(EcaVm::new(id, def)?),
            ManagerKind::SelfMaintaining => Box::new(SelfMaintVm::new(id, def)),
            ManagerKind::Strobe => Box::new(StrobeVm::new(id, def)?),
            ManagerKind::Periodic { period } => Box::new(PeriodicVm::new(id, def, period)),
            ManagerKind::Convergent { correction_every } => {
                Box::new(ConvergentVm::new(id, def, correction_every))
            }
            ManagerKind::CompleteN { n } => Box::new(CompleteNVm::new(id, def, n)),
        })
    }

    /// Whether crash recovery must rebuild this kind by replaying its
    /// logged delivery sequence from genesis instead of re-initializing a
    /// fresh manager at its install watermark.
    ///
    /// Watermark re-initialization is exact for kinds whose state is a
    /// pure function of the source cut at the highest installed action
    /// list (`Complete`, `CompleteN`, `SelfMaintaining`, `Periodic`, and
    /// `Eca`, whose compensating queries complete before the covering AL
    /// is released). `Strobe` carries compensation bookkeeping for
    /// in-flight queries and `Convergent` carries accumulated estimate
    /// drift — neither is derivable from a watermark, so their managers
    /// log every delivered event and recovery replays that sequence.
    pub fn needs_delivery_replay(self) -> bool {
        matches!(self, ManagerKind::Strobe | ManagerKind::Convergent { .. })
    }
}

/// One registered view.
#[derive(Debug, Clone)]
pub struct ViewEntry {
    pub id: ViewId,
    pub def: ViewDef,
    pub kind: ManagerKind,
}

/// All views in the system.
#[derive(Debug, Clone, Default)]
pub struct ViewRegistry {
    entries: BTreeMap<ViewId, ViewEntry>,
}

impl ViewRegistry {
    pub fn new() -> Self {
        ViewRegistry::default()
    }

    pub fn add(&mut self, id: ViewId, def: ViewDef, kind: ManagerKind) {
        assert!(
            !self.entries.contains_key(&id),
            "view {id} registered twice"
        );
        self.entries.insert(id, ViewEntry { id, def, kind });
    }

    pub fn get(&self, id: ViewId) -> Option<&ViewEntry> {
        self.entries.get(&id)
    }

    pub fn iter(&self) -> impl Iterator<Item = &ViewEntry> {
        self.entries.values()
    }

    pub fn ids(&self) -> impl Iterator<Item = ViewId> + '_ {
        self.entries.keys().copied()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Have `cluster` keep the join indexes every registered view's
    /// delta queries probe. Every deployment builder (sim, threaded,
    /// pipeline) and recovery call it on the cluster they run against;
    /// a dynamic install indexes its one view the same way.
    pub fn index_sources(&self, cluster: &mut SourceCluster) {
        for e in self.entries.values() {
            cluster.index_join_columns(&e.def.core);
        }
    }

    /// Views whose manager kind recovers by delivery replay (see
    /// [`ManagerKind::needs_delivery_replay`]).
    pub fn delivery_replay_views(&self) -> BTreeSet<ViewId> {
        self.entries
            .values()
            .filter(|e| e.kind.needs_delivery_replay())
            .map(|e| e.id)
            .collect()
    }

    /// Consistency levels of all managers (for §6.3 algorithm selection).
    pub fn levels(&self) -> Vec<(ViewId, ConsistencyLevel)> {
        self.entries
            .values()
            .map(|e| (e.id, e.kind.level()))
            .collect()
    }

    /// Base-relation footprints (for §6.1 partitioning and integrator
    /// routing).
    pub fn footprints(&self) -> BTreeMap<ViewId, BTreeSet<RelationName>> {
        self.entries
            .values()
            .map(|e| (e.id, e.def.base_relations()))
            .collect()
    }

    /// Build the precomputed relevance index for integrator routing: for
    /// every base relation, the views whose REL_i set can possibly contain
    /// an update touching it. Built once at registration time so the
    /// integrator's per-update work is a hash lookup over the update's
    /// relations instead of a scan over every registered view.
    pub fn relevance_index(&self, partitioning: &Partitioning<RelationName>) -> RelevanceIndex {
        let mut by_relation: BTreeMap<RelationName, Vec<ViewId>> = BTreeMap::new();
        for e in self.entries.values() {
            for rel in e.def.base_relations() {
                by_relation.entry(rel).or_default().push(e.id);
            }
        }
        let groups = partitioning.group_count().max(1);
        let group_of = self
            .entries
            .keys()
            .map(|&v| (v, partitioning.group_of_view(v).unwrap_or(0)))
            .collect();
        RelevanceIndex {
            by_relation,
            group_of,
            groups,
        }
    }

    /// Compute the §6.1 partitioning. With `partition == false` everything
    /// lands in a single group (the default single-merge deployment).
    pub fn partitioning(&self, partition: bool) -> Partitioning<RelationName> {
        if partition {
            Partitioning::compute(&self.footprints())
        } else {
            // One group holding every view: give all views an artificial
            // shared footprint marker so union-find collapses them.
            let marker = RelationName::new("\u{0}__all__");
            let mut fp = self.footprints();
            for rels in fp.values_mut() {
                rels.insert(marker.clone());
            }
            Partitioning::compute(&fp)
        }
    }
}

/// Precomputed routing structure: relation → candidate views, view →
/// merge group. Derived from the registry + partitioning once per
/// deployment (and rebuilt on dynamic view installation); the integrator
/// consults it on every update instead of re-deriving footprints.
#[derive(Debug, Clone, Default)]
pub struct RelevanceIndex {
    /// Views whose base-relation footprint contains the relation, in
    /// ascending `ViewId` order (BTreeMap iteration at build time).
    by_relation: BTreeMap<RelationName, Vec<ViewId>>,
    group_of: BTreeMap<ViewId, usize>,
    groups: usize,
}

impl RelevanceIndex {
    /// Candidate views for an update touching `rel` (relation-level
    /// REL_i — tuple-level tests refine this further).
    pub fn candidates(&self, rel: &RelationName) -> &[ViewId] {
        self.by_relation.get(rel).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Merge group owning a view.
    pub fn group_of_view(&self, v: ViewId) -> usize {
        self.group_of.get(&v).copied().unwrap_or(0)
    }

    /// Number of merge groups.
    pub fn groups(&self) -> usize {
        self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_relational::{Catalog, Schema};

    fn registry() -> ViewRegistry {
        let cat = Catalog::new()
            .with("R", Schema::ints(&["a", "b"]))
            .with("S", Schema::ints(&["b", "c"]))
            .with("Q", Schema::ints(&["q", "r"]));
        let mut reg = ViewRegistry::new();
        reg.add(
            ViewId(1),
            ViewDef::builder("V1")
                .from("R")
                .from("S")
                .join_on("R.b", "S.b")
                .build(&cat)
                .unwrap(),
            ManagerKind::Complete,
        );
        reg.add(
            ViewId(2),
            ViewDef::builder("V2").from("S").build(&cat).unwrap(),
            ManagerKind::Strobe,
        );
        reg.add(
            ViewId(3),
            ViewDef::builder("V3").from("Q").build(&cat).unwrap(),
            ManagerKind::Complete,
        );
        reg
    }

    #[test]
    fn levels_and_kinds() {
        let reg = registry();
        let levels = reg.levels();
        assert_eq!(levels.len(), 3);
        assert_eq!(
            ConsistencyLevel::weakest_of(levels.iter().map(|(_, l)| *l)),
            ConsistencyLevel::Strong
        );
    }

    #[test]
    fn partitioning_modes() {
        let reg = registry();
        let single = reg.partitioning(false);
        assert_eq!(single.group_count(), 1);
        let multi = reg.partitioning(true);
        assert_eq!(multi.group_count(), 2, "{{V1,V2}} and {{V3}}");
        assert_eq!(
            multi.group_of_view(ViewId(1)),
            multi.group_of_view(ViewId(2))
        );
        assert_ne!(
            multi.group_of_view(ViewId(1)),
            multi.group_of_view(ViewId(3))
        );
    }

    #[test]
    fn manager_construction() {
        let reg = registry();
        for e in reg.iter() {
            let m = e.kind.build(e.id, e.def.clone()).unwrap();
            assert_eq!(m.id(), e.id);
            assert_eq!(m.level(), e.kind.level());
            assert!(m.is_idle());
        }
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_view_panics() {
        let mut reg = registry();
        let def = reg.get(ViewId(1)).unwrap().def.clone();
        reg.add(ViewId(1), def, ManagerKind::Complete);
    }
}
