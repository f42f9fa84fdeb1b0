//! The integrator (§3.2): numbers incoming source updates, computes the
//! relevant view set `REL_i`, and routes updates to view managers and
//! `REL` sets to merge processes.
//!
//! With a partitioned merge (§6.1) each group gets its own contiguous
//! update numbering — a group only ever sees updates relevant to it, and
//! the painting algorithms need gapless `REL` streams.

use crate::registry::{RelevanceIndex, ViewRegistry};
use crate::transitions::WalSink;
use mvc_core::{Partitioning, UpdateId, ViewId};
use mvc_durability::{RoutedUpdate, WalError, WalRecord};
use mvc_relational::RelationName;
use mvc_source::{GlobalSeq, SourceUpdate};
use mvc_viewmgr::NumberedUpdate;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The routing decision for one source update within one merge group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRouting {
    pub group: usize,
    /// The update as numbered in this group's id space.
    pub numbered: NumberedUpdate,
    /// `REL_i`: views of this group the update is relevant to (non-empty).
    pub rel: BTreeSet<ViewId>,
}

/// The integrator's half of a checkpoint.
pub struct RoutingSnapshot {
    pub(crate) route_lists: Vec<RoutedUpdate>,
    pub(crate) next_id: Vec<UpdateId>,
    pub(crate) received: u64,
    pub(crate) dropped: u64,
    pub(crate) last_logged_src: GlobalSeq,
    /// Every `SourceUpdate` logged before has a smaller index and is
    /// covered by `route_lists`.
    pub(crate) anchor: u64,
}

/// The integrator state machine, with its routing history.
#[derive(Debug)]
pub struct Integrator {
    registry: ViewRegistry,
    partitioning: Partitioning<RelationName>,
    /// Precomputed relation → candidate-view routing index, built once
    /// from the registered view definitions (rebuilt only on dynamic
    /// view installation).
    index: RelevanceIndex,
    /// Next update number per merge group.
    next_id: Vec<UpdateId>,
    /// Use the tuple-level irrelevance test of ref \[7\] in addition to the
    /// relation-level test.
    tuple_relevance: bool,
    /// Updates received (stats).
    received: u64,
    /// Updates relevant to no view at all (stats — ref \[7\] wins).
    dropped: u64,
    /// Per merge group: local update id → global commit seq, for every
    /// update routed.
    pub(crate) group_updates: Vec<BTreeMap<UpdateId, GlobalSeq>>,
    /// Every routing decision with its shared payload — a checkpoint's
    /// self-contained routing history. `None` until a host that takes
    /// checkpoints asks for it ([`Integrator::keep_checkpoint_state`]):
    /// it grows with the run and keeps every payload alive.
    durable_routes: Option<Vec<RoutedUpdate>>,
    /// Seq of the last source update routed or dropped — with a log
    /// attached, the last one durably logged. Also the initial-load cut
    /// of a §1.2 install.
    pub(crate) last_src: GlobalSeq,
}

impl Integrator {
    pub fn new(
        registry: ViewRegistry,
        partitioning: Partitioning<RelationName>,
        tuple_relevance: bool,
    ) -> Self {
        let groups = partitioning.group_count();
        let index = registry.relevance_index(&partitioning);
        Integrator {
            registry,
            partitioning,
            index,
            next_id: vec![UpdateId::ZERO; groups],
            tuple_relevance,
            received: 0,
            dropped: 0,
            group_updates: vec![BTreeMap::new(); groups.max(1)],
            durable_routes: None,
            last_src: GlobalSeq::INITIAL,
        }
    }

    pub fn registry(&self) -> &ViewRegistry {
        &self.registry
    }

    pub fn partitioning(&self) -> &Partitioning<RelationName> {
        &self.partitioning
    }

    pub fn received(&self) -> u64 {
        self.received
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Restore checkpointed counters into a freshly built integrator
    /// (recovery: the routing sequence resumes exactly where the
    /// checkpointed run left off).
    pub fn restore_counters(&mut self, next_id: Vec<UpdateId>, received: u64, dropped: u64) {
        if !next_id.is_empty() {
            self.next_id = next_id;
        }
        self.received = received;
        self.dropped = dropped;
    }

    /// §1.2 dynamic view installation (single-merge-group deployments
    /// only): register the view with the integrator and allocate the
    /// install row's update id. The caller wires the rest (VM creation,
    /// initial load, merge-column addition).
    pub fn install_view(
        &mut self,
        id: ViewId,
        def: mvc_relational::ViewDef,
        kind: crate::registry::ManagerKind,
    ) -> Result<(usize, UpdateId), String> {
        if self.partitioning.group_count() > 1 {
            return Err("dynamic view installation requires the single-merge deployment".into());
        }
        self.registry.add(id, def, kind);
        self.partitioning = self.registry.partitioning(false);
        self.index = self.registry.relevance_index(&self.partitioning);
        let g = 0;
        if self.next_id.is_empty() {
            self.next_id.push(UpdateId::ZERO);
        }
        let c = self.next_id[g].next();
        self.next_id[g] = c;
        Ok((g, c))
    }

    /// Route one committed source update, logging it first (log-ahead)
    /// when `sink` has a log attached. Returns one entry per merge group
    /// with a non-empty relevant set; an update relevant to nothing
    /// returns an empty vec. Fanning the result out is the host's.
    ///
    /// Zero-copy: the payload arrives as a shared `Arc` and every
    /// per-group `NumberedUpdate` clones the handle only. Candidate views
    /// come from the precomputed relevance index (one map lookup per
    /// touched relation); the tuple-level test of ref \[7\] then runs
    /// per candidate directly on the delta, without materializing a
    /// tuple list.
    pub fn route<S: WalSink>(
        &mut self,
        update: Arc<SourceUpdate>,
        sink: &mut S,
    ) -> Result<Vec<GroupRouting>, WalError> {
        if sink.attached() {
            // Shares the routed payload's handle.
            sink.append(&WalRecord::SourceUpdate(Arc::clone(&update)))?;
        }
        self.last_src = update.seq;
        self.received += 1;
        let mut rel_by_group: BTreeMap<usize, BTreeSet<ViewId>> = BTreeMap::new();
        for change in &update.changes {
            for &v in self.index.candidates(&change.relation) {
                let g = self.index.group_of_view(v);
                if rel_by_group.get(&g).is_some_and(|s| s.contains(&v)) {
                    continue;
                }
                let relevant = !self.tuple_relevance || {
                    let def = &self.registry.get(v).expect("registered view").def;
                    change
                        .delta
                        .iter()
                        .any(|(t, _)| def.relevant_tuple(&change.relation, t))
                };
                if relevant {
                    rel_by_group.entry(g).or_default().insert(v);
                }
            }
        }
        let mut out = Vec::with_capacity(rel_by_group.len());
        for (g, rel) in rel_by_group {
            let id = self.next_id[g].next();
            self.next_id[g] = id;
            self.group_updates[g].insert(id, update.seq);
            if let Some(routes) = &mut self.durable_routes {
                routes.push(RoutedUpdate {
                    group: g as u64,
                    id,
                    update: Arc::clone(&update),
                    rel: rel.clone(),
                });
            }
            out.push(GroupRouting {
                group: g,
                numbered: NumberedUpdate {
                    id,
                    update: Arc::clone(&update),
                },
                rel,
            });
        }
        if out.is_empty() {
            self.dropped += 1;
        }
        Ok(out)
    }

    /// Keep what [`Integrator::snapshot`] needs, from here on. For hosts
    /// that take checkpoints, before the first update is routed.
    pub fn keep_checkpoint_state(&mut self) {
        self.durable_routes.get_or_insert_with(Vec::new);
    }

    /// Global seqs of every update routed to at least one group.
    pub fn routed(&self) -> BTreeSet<GlobalSeq> {
        let routed = self.group_updates.iter().flat_map(BTreeMap::values);
        routed.copied().collect()
    }

    /// This component's checkpoint half — routing history plus the
    /// dynamic counters; registry, partitioning and relevance index are
    /// rebuilt from the view definitions — anchored at the sink's next
    /// record.
    pub fn snapshot<S: WalSink>(&self, sink: &S) -> RoutingSnapshot {
        RoutingSnapshot {
            route_lists: self.durable_routes.clone().unwrap_or_default(),
            next_id: self.next_id.clone(),
            received: self.received,
            dropped: self.dropped,
            last_logged_src: self.last_src,
            anchor: sink.next_index(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ManagerKind;
    use mvc_relational::{tuple, Catalog, Expr, Schema, ViewDef};
    use mvc_source::{GlobalSeq, RelationChange, SourceId};

    fn update(seq: u64, rel: &str, vals: (i64, i64)) -> SourceUpdate {
        let mut d = mvc_relational::Delta::new();
        d.insert(tuple![vals.0, vals.1]);
        SourceUpdate {
            seq: GlobalSeq(seq),
            source: SourceId(0),
            changes: vec![RelationChange {
                relation: rel.into(),
                delta: d,
            }],
        }
    }

    /// Route with no log attached.
    fn route(it: &mut Integrator, u: SourceUpdate) -> Vec<GroupRouting> {
        it.route(Arc::new(u), &mut None::<mvc_durability::WalWriter>)
            .unwrap()
    }

    fn setup(tuple_relevance: bool, partition: bool) -> Integrator {
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
                .filter(Expr::gt(Expr::named("R.a"), Expr::value(10)))
                .build(&cat)
                .unwrap(),
            ManagerKind::Complete,
        );
        reg.add(
            ViewId(2),
            ViewDef::builder("V2").from("S").build(&cat).unwrap(),
            ManagerKind::Complete,
        );
        reg.add(
            ViewId(3),
            ViewDef::builder("V3").from("Q").build(&cat).unwrap(),
            ManagerKind::Complete,
        );
        let p = reg.partitioning(partition);
        Integrator::new(reg, p, tuple_relevance)
    }

    #[test]
    fn relation_level_routing() {
        let mut it = setup(false, false);
        let r = route(&mut it, update(1, "S", (2, 3)));
        assert_eq!(r.len(), 1, "single group");
        assert_eq!(
            r[0].rel,
            [ViewId(1), ViewId(2)].into_iter().collect::<BTreeSet<_>>()
        );
        assert_eq!(r[0].numbered.id, UpdateId(1));
        // Q update → only V3; numbering continues in the same group space
        let r2 = route(&mut it, update(2, "Q", (1, 1)));
        assert_eq!(r2[0].rel, [ViewId(3)].into_iter().collect::<BTreeSet<_>>());
        assert_eq!(r2[0].numbered.id, UpdateId(2));
    }

    #[test]
    fn tuple_level_irrelevance_filters() {
        let mut it = setup(true, false);
        // R tuple with a=5 fails V1's selection a>10 → V1 not relevant;
        // R is not in any other view → update dropped entirely.
        let r = route(&mut it, update(1, "R", (5, 2)));
        assert!(r.is_empty());
        assert_eq!(it.dropped(), 1);
        // a=11 passes
        let r = route(&mut it, update(2, "R", (11, 2)));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].rel, [ViewId(1)].into_iter().collect::<BTreeSet<_>>());
        assert_eq!(r[0].numbered.id, UpdateId(1), "dropped updates unnumbered");
    }

    #[test]
    fn partitioned_numbering_is_per_group() {
        let mut it = setup(false, true);
        let g_rs = it.partitioning().group_of_view(ViewId(1)).unwrap();
        let g_q = it.partitioning().group_of_view(ViewId(3)).unwrap();
        assert_ne!(g_rs, g_q);
        let r1 = route(&mut it, update(1, "S", (2, 3)));
        assert_eq!(r1[0].group, g_rs);
        assert_eq!(r1[0].numbered.id, UpdateId(1));
        let r2 = route(&mut it, update(2, "Q", (1, 1)));
        assert_eq!(r2[0].group, g_q);
        assert_eq!(
            r2[0].numbered.id,
            UpdateId(1),
            "each group numbers independently"
        );
        let r3 = route(&mut it, update(3, "S", (9, 9)));
        assert_eq!(r3[0].numbered.id, UpdateId(2));
    }

    #[test]
    fn multi_relation_txn_spans_groups() {
        let mut it = setup(false, true);
        let mut d1 = mvc_relational::Delta::new();
        d1.insert(tuple![1, 2]);
        let mut d2 = mvc_relational::Delta::new();
        d2.insert(tuple![7, 8]);
        let u = SourceUpdate {
            seq: GlobalSeq(1),
            source: SourceId(0),
            changes: vec![
                RelationChange {
                    relation: "S".into(),
                    delta: d1,
                },
                RelationChange {
                    relation: "Q".into(),
                    delta: d2,
                },
            ],
        };
        let r = route(&mut it, u);
        assert_eq!(r.len(), 2, "routed to both groups");
    }
}
