//! Crash recovery: rebuild a mid-flight pipeline from its write-ahead
//! log and finish the workload.
//!
//! The scan makes a single ordered pass over the log (stitched across
//! rotated segments by `WalReader::open_log`, so record indices are
//! absolute even after compaction dropped a prefix). Engines, the
//! warehouse and the integrator counters are restored from the newest
//! checkpoint — or start fresh, if the log holds none — and each
//! component consumes only the records at or past its checkpoint
//! *anchor* (the per-component absolute record index the checkpoint
//! carries; on the threaded runtime the anchors precede the checkpoint
//! record itself because each component snapshots at its own moment).
//! Replay is idempotent by construction: engine inputs are deduplicated
//! by `UpdateId` watermark, commits by `(group, seq)`, so a group is
//! never double-applied no matter where the crash landed.
//!
//! View managers come back in one of two ways, chosen per kind:
//!
//! * **watermark re-initialization** — a fresh manager is initialized at
//!   the source cut of its highest installed action list, and updates
//!   past that watermark are re-delivered. Exact for every kind whose
//!   state is a pure function of that cut.
//! * **delivery replay** — `Strobe`/`Convergent` managers (compensation
//!   bookkeeping / accumulated estimate drift) are rebuilt by replaying
//!   their logged `Vm*Delivered` sequence from genesis; action lists and
//!   queries the replay re-emits are re-enqueued exactly where the
//!   crashed run had them in flight. Registering such a view disables
//!   WAL compaction (replay needs the full delivery history), and a
//!   compacted log is rejected with a typed error rather than replayed
//!   from a hole.
//!
//! The resumed run does not re-log (single-recovery model): surviving a
//! second crash during recovery would need the recovered state itself to
//! be checkpointed first, which is exactly a fresh WAL — out of scope.

use crate::machine::{assemble, Assembly, ChanId, Msg};
use crate::registry::ViewRegistry;
use crate::sim::{CommitLogEntry, Sim, SimConfig, SimError, SimReport, WorkloadTxn};
use crate::transitions::MergePart;
use mvc_core::{MergeProcess, TxnSeq, UpdateId, ViewId};
use mvc_durability::{WalError, WalReader, WalRecord, WalWriter};
use mvc_source::{SourceCluster, SourceUpdate};
use mvc_viewmgr::{
    ActionListDelta, NumberedUpdate, QueryAnswer, QueryRequest, QueryToken, VmEvent, VmOutput,
};
use mvc_warehouse::{StoreTxn, Warehouse};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Recovery failures, all typed — corruption, unsupported configurations
/// and log-discipline violations are reported, never papered over.
#[derive(Debug)]
pub enum RecoveryError {
    /// Reading the log failed (I/O, bad magic, checksum mismatch, torn
    /// or missing segment).
    Wal(WalError),
    /// The config carries no durability section, so there is no log.
    NoDurability,
    /// A `TxnCommitted` record with no preceding `GroupReleased` payload:
    /// the log violates the log-ahead discipline (or was tampered with).
    MissingReleasePayload { group: usize, seq: TxnSeq },
    /// A `VmUpdateDelivered` record references an update id the routing
    /// history never produced — the delivery log and the routing log
    /// disagree (tampering or a torn rewrite).
    MissingRoutedPayload { view: ViewId, id: UpdateId },
    /// The log was compacted (its oldest surviving record index is past
    /// genesis) but `view` uses a delivery-replay manager kind, whose
    /// replay needs the full history. Writers disable compaction for such
    /// registries; hitting this means the log and registry mismatch.
    CompactedDeliveryLog { view: ViewId },
    /// Replaying the tail (or finishing the workload) failed.
    Replay(SimError),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Wal(e) => write!(f, "wal error: {e}"),
            RecoveryError::NoDurability => {
                write!(f, "config has no durability section (no log to recover)")
            }
            RecoveryError::MissingReleasePayload { group, seq } => {
                write!(
                    f,
                    "TxnCommitted({seq:?}) for group {group} has no GroupReleased payload"
                )
            }
            RecoveryError::MissingRoutedPayload { view, id } => {
                write!(
                    f,
                    "VmUpdateDelivered({id:?}) for view {view} has no routed payload"
                )
            }
            RecoveryError::CompactedDeliveryLog { view } => {
                write!(
                    f,
                    "view {view} needs delivery replay from genesis but the log was compacted"
                )
            }
            RecoveryError::Replay(e) => write!(f, "replay error: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<WalError> for RecoveryError {
    fn from(e: WalError) -> Self {
        RecoveryError::Wal(e)
    }
}
impl From<SimError> for RecoveryError {
    fn from(e: SimError) -> Self {
        RecoveryError::Replay(e)
    }
}

/// Everything the scan reconstructs; consumed by `Sim::resume`.
pub(crate) struct RecoveredState {
    /// The deployment's components as the crash left them: integrator
    /// counters and routing map (with the seq of the last `SourceUpdate`
    /// record in the log), engines and warehouse restored from the newest
    /// checkpoint (if any) and rolled forward over the log tail; view
    /// managers of watermark kinds re-initialized at their install
    /// watermark, of delivery-replay kinds rebuilt from their logged
    /// event sequence.
    pub(crate) assembly: Assembly,
    pub(crate) commit_log: Vec<CommitLogEntry>,
    /// Per group, in arrival (= id) order: every routing decision.
    pub(crate) route_lists: Vec<Vec<(UpdateId, NumberedUpdate, BTreeSet<ViewId>)>>,
    /// Per group: highest REL id durably delivered to the engine.
    pub(crate) installed_rel: Vec<UpdateId>,
    /// Per view: highest `AL.last` durably delivered to its engine.
    pub(crate) installed_al: BTreeMap<ViewId, UpdateId>,
    /// Released but not committed, in `(group, seq)` order.
    pub(crate) pending: BTreeMap<(usize, TxnSeq), StoreTxn>,
    /// Committed but not acknowledged back to the scheduler.
    pub(crate) unacked: Vec<(usize, TxnSeq)>,
    /// Views recovered by delivery replay (their update re-enqueue is
    /// filtered by the `delivered` sets, not by an AL watermark).
    pub(crate) replayed_views: BTreeSet<ViewId>,
    /// Per replayed view: update ids durably delivered to its manager.
    pub(crate) delivered: BTreeMap<ViewId, BTreeSet<UpdateId>>,
    /// Action lists the delivery replay re-emitted that never reached
    /// the merge process — back onto the VM→MP channel.
    pub(crate) vm_requeue_actions: Vec<(ViewId, ActionListDelta)>,
    /// Queries the delivery replay re-emitted that were never answered —
    /// back onto the VM→QS channel (re-answered at the current sources;
    /// the manager compensates exactly as it would have pre-crash).
    pub(crate) vm_requeue_queries: Vec<(ViewId, QueryToken, QueryRequest)>,
}

impl RecoveredState {
    /// Source history the integrator never durably saw (the sources
    /// survive crashes on their own, so their history is authoritative).
    pub(crate) fn cluster_tail<'a>(
        &self,
        cluster: &'a SourceCluster,
    ) -> impl Iterator<Item = &'a SourceUpdate> {
        let after = self.assembly.integrator.last_src;
        cluster.history().iter().filter(move |u| u.seq > after)
    }

    /// Every message that was in flight at the crash (or lost with the
    /// log tail), back on the channel it was travelling.
    pub(crate) fn in_flight(&mut self, cluster: &SourceCluster) -> BTreeMap<ChanId, VecDeque<Msg>> {
        let mut channels: BTreeMap<ChanId, VecDeque<Msg>> = BTreeMap::new();
        let mut push = |chan: ChanId, msg: Msg| channels.entry(chan).or_default().push_back(msg);

        // Source updates the integrator never durably saw: re-deliver
        // from the (surviving) source history.
        for u in self.cluster_tail(cluster) {
            // seal: replay owns its payload — the surviving history entry
            // is deep-copied once into a fresh Arc, off the hot path
            push(ChanId::SrcToInt, Msg::SrcUpdate(Arc::new(u.clone())));
        }

        // REL messages past each group's installed watermark (per-channel
        // FIFO makes the durable prefix gapless), and per-view update
        // messages past each view's AL watermark.
        for (g, list) in self.route_lists.iter().enumerate() {
            for (id, _, rel) in list {
                if *id > self.installed_rel[g] {
                    push(ChanId::IntToMp(g), Msg::Rel(*id, rel.clone()));
                }
            }
        }
        for (g, views) in self.assembly.group_views.iter().enumerate() {
            for &v in views {
                // Delivery-replay views: everything routed to the view
                // but not in its durable delivery log was in flight when
                // the crash hit. Watermark views: everything past the
                // view's AL watermark. Either way re-deliver in id order.
                let del = self.delivered.get(&v);
                let watermark = self.installed_al.get(&v).copied().unwrap_or(UpdateId::ZERO);
                let replayed = self.replayed_views.contains(&v);
                for (id, numbered, rel) in &self.route_lists[g] {
                    let lost = if replayed {
                        !del.is_some_and(|d| d.contains(id))
                    } else {
                        *id > watermark
                    };
                    if rel.contains(&v) && lost {
                        // seal: re-delivery fan-out clones the Arc
                        // handle, never the tuple payload.
                        push(ChanId::IntToVm(v), Msg::Update(numbered.clone()));
                    }
                }
            }
        }

        // What the delivery replay re-emitted and the crashed run still
        // had in flight: action lists back onto VM→MP, unanswered queries
        // back onto VM→QS (the answer rides src→int→vm FIFO behind every
        // re-enqueued update, preserving the compensation ordering).
        for (v, al) in std::mem::take(&mut self.vm_requeue_actions) {
            push(ChanId::VmToMp(v), Msg::Action(al));
        }
        for (v, token, request) in std::mem::take(&mut self.vm_requeue_queries) {
            push(ChanId::VmToQs(v), Msg::Query(token, Box::new(request)));
        }

        // Released-but-uncommitted transactions go straight back to the
        // committer; committed-but-unacked seqs get their ack re-delivered
        // (else the scheduler's in-flight window never clears).
        for ((g, _), txn) in &self.pending {
            push(ChanId::MpToWh(*g), Msg::Txn(txn.clone()));
        }
        for (g, seq) in &self.unacked {
            push(ChanId::WhToMp(*g), Msg::Committed(*seq));
        }
        channels
    }
}

/// Recover from the WAL named in `config.durability`, then finish
/// `remaining` (the workload suffix the crashed run never injected) and
/// return the stitched report: pre-crash commits restored from the log,
/// post-crash commits appended by the resumed run, `commit_log` aligned
/// 1:1 with `warehouse.history()` throughout.
pub fn recover_and_run(
    config: SimConfig,
    cluster: SourceCluster,
    registry: &ViewRegistry,
    remaining: Vec<WorkloadTxn>,
) -> Result<SimReport, RecoveryError> {
    let d = config
        .durability
        .clone()
        .ok_or(RecoveryError::NoDurability)?;
    let log = WalReader::open_log(&d.wal_path)?;
    let state = rebuild(&config, registry, &cluster, &log.records, log.base)?;
    let sim = Sim::resume(config, cluster, state, remaining)?;
    sim.run().map_err(RecoveryError::Replay)
}

/// One logged delivery to a replay-class view manager, in log order.
enum ReplayEvent {
    Update(UpdateId),
    Answer(QueryToken, QueryAnswer),
    Flush,
}

/// The single-pass log scan (see module docs). `base` is the absolute
/// index of `records[0]` — nonzero once compaction dropped a prefix.
fn rebuild(
    config: &SimConfig,
    registry: &ViewRegistry,
    cluster: &SourceCluster,
    records: &[WalRecord],
    base: u64,
) -> Result<RecoveredState, RecoveryError> {
    let mut assembly = assemble(
        registry,
        config.partition,
        config.groups,
        config.algorithm,
        config.commit_policy,
        config.tuple_relevance,
        config.record_snapshots,
    )
    .map_err(SimError::Vm)?;
    let groups = assembly.mps.len();

    let replayed_views = registry.delivery_replay_views();
    if base > 0 {
        if let Some(&view) = replayed_views.iter().next() {
            return Err(RecoveryError::CompactedDeliveryLog { view });
        }
    }

    // Routing bookkeeping, install watermarks, in-flight transactions and
    // replay anchors — seeded from the newest checkpoint when one exists.
    let mut route_lists: Vec<Vec<(UpdateId, NumberedUpdate, BTreeSet<ViewId>)>> =
        vec![Vec::new(); groups];
    let mut installed_rel = vec![UpdateId::ZERO; groups];
    let mut installed_al: BTreeMap<ViewId, UpdateId> = BTreeMap::new();
    let mut pending: BTreeMap<(usize, TxnSeq), StoreTxn> = BTreeMap::new();
    let mut committed: BTreeSet<(usize, TxnSeq)> = BTreeSet::new();
    let mut unacked_set: BTreeSet<(usize, TxnSeq)> = BTreeSet::new();
    let mut merge_anchors = vec![0u64; groups];
    let mut routing_anchor = 0u64;

    // Engines, warehouse and commit log start from the newest checkpoint,
    // or fresh (as assembled) if the log holds none.
    let mut commit_log: Vec<CommitLogEntry> = Vec::new();
    let ck_idx = records
        .iter()
        .rposition(|r| matches!(r, WalRecord::Checkpoint(_)));
    if let Some(c) = ck_idx {
        let WalRecord::Checkpoint(ck) = &records[c] else {
            unreachable!("rposition matched a checkpoint")
        };
        assembly.mps = ck
            .merges
            .iter()
            .cloned()
            .enumerate()
            .map(|(g, s)| MergePart::new(g, MergeProcess::from_snapshot(s)))
            .collect();
        assembly.warehouse = Warehouse::restore(ck.warehouse.clone());
        commit_log = ck
            .commit_log
            .iter()
            .map(|r| CommitLogEntry {
                group: r.group as usize,
                seq: r.seq,
                rows: r.rows.clone(),
                views: r.views.clone(),
            })
            .collect();
        // The checkpoint is self-contained: restore the routing
        // history, watermarks, in-flight transactions and counters
        // outright; the scan below replays only past the anchors.
        assembly
            .integrator
            .restore_counters(ck.next_id.clone(), ck.received, ck.dropped);
        for r in &ck.route_lists {
            let g = (r.group as usize).min(groups - 1);
            let numbered = NumberedUpdate {
                id: r.id,
                update: Arc::clone(&r.update),
            };
            assembly.integrator.group_updates[g].insert(r.id, numbered.seq());
            route_lists[g].push((r.id, numbered, r.rel.clone()));
        }
        for (g, w) in ck.installed_rel.iter().enumerate().take(groups) {
            installed_rel[g] = *w;
        }
        for &(v, w) in &ck.installed_al {
            installed_al.insert(v, w);
        }
        for (g, txn) in &ck.pending {
            pending.insert((*g as usize, txn.seq), txn.clone());
        }
        for &(g, seq) in &ck.unacked {
            unacked_set.insert((g as usize, seq));
        }
        for e in &commit_log {
            committed.insert((e.group, e.seq));
        }
        assembly.integrator.last_src = ck.last_logged_src;
        for (g, a) in ck.merge_anchors.iter().enumerate().take(groups) {
            merge_anchors[g] = *a;
        }
        routing_anchor = ck.routing_anchor;
    }
    let Assembly {
        integrator,
        mps,
        warehouse,
        vms,
        ..
    } = &mut assembly;

    // Delivery sequences for replay-class views, gathered over the scan.
    let mut replay: BTreeMap<ViewId, Vec<ReplayEvent>> = BTreeMap::new();
    let mut delivered: BTreeMap<ViewId, BTreeSet<UpdateId>> = BTreeMap::new();

    for (i, rec) in records.iter().enumerate() {
        let idx = base + i as u64;
        match rec {
            WalRecord::SourceUpdate(u) => {
                // Records below the routing anchor are already inside the
                // checkpoint's route lists and counters.
                if idx >= routing_anchor {
                    // seal: WAL replay re-numbers the logged update through
                    // the integrator's own transition (no sink: the resumed
                    // run does not re-log), sharing the record's handle
                    for r in integrator.route(u.clone(), &mut None::<WalWriter>)? {
                        route_lists[r.group].push((r.numbered.id, r.numbered, r.rel));
                    }
                }
            }
            WalRecord::RelInstalled { group, id, rel } => {
                let g = *group as usize;
                if idx >= merge_anchors[g] {
                    installed_rel[g] = installed_rel[g].max(*id);
                    let released = mps[g].mp.on_rel(*id, rel.clone()).map_err(SimError::from)?;
                    stash(&mut pending, g, released);
                }
            }
            WalRecord::ActionInstalled { group, al } => {
                let g = *group as usize;
                if idx >= merge_anchors[g] {
                    let w = installed_al.entry(al.view).or_insert(UpdateId::ZERO);
                    *w = (*w).max(al.last);
                    let released = mps[g].mp.on_action(al.clone()).map_err(SimError::from)?;
                    stash(&mut pending, g, released);
                }
            }
            WalRecord::GroupReleased { group, txn } => {
                // `or_insert`: the logged payload wins over (identical)
                // replay-emitted copies.
                pending
                    .entry((*group as usize, txn.seq))
                    .or_insert_with(|| txn.clone());
            }
            WalRecord::TxnCommitted { group, seq } => {
                let g = *group as usize;
                // Deduplicated by `(group, seq)` against the checkpoint's
                // commit log — a pre-anchor record whose commit the
                // checkpoint already holds just clears its payload.
                let txn = pending.remove(&(g, *seq));
                if committed.insert((g, *seq)) {
                    let txn = txn.ok_or(RecoveryError::MissingReleasePayload {
                        group: g,
                        seq: *seq,
                    })?;
                    warehouse.apply(&txn).map_err(SimError::from)?;
                    commit_log.push(CommitLogEntry {
                        group: g,
                        seq: *seq,
                        rows: txn.rows.clone(),
                        views: txn.views.clone(),
                    });
                    unacked_set.insert((g, *seq));
                }
            }
            WalRecord::CommitAcked { group, seq } => {
                let g = *group as usize;
                unacked_set.remove(&(g, *seq));
                if idx >= merge_anchors[g] {
                    let released = mps[g].mp.on_committed(*seq);
                    stash(&mut pending, g, released);
                }
            }
            WalRecord::VmUpdateDelivered { view, id } => {
                delivered.entry(*view).or_default().insert(*id);
                replay
                    .entry(*view)
                    .or_default()
                    .push(ReplayEvent::Update(*id));
            }
            WalRecord::VmAnswerDelivered {
                view,
                token,
                answer,
            } => {
                replay
                    .entry(*view)
                    .or_default()
                    .push(ReplayEvent::Answer(*token, answer.clone()));
            }
            WalRecord::VmFlushDelivered { view } => {
                replay.entry(*view).or_default().push(ReplayEvent::Flush);
            }
            // Paint records are an audit trail; colors are reconstructed
            // by the engine replay above. Checkpoints were consumed up
            // front.
            WalRecord::Paint { .. } | WalRecord::Checkpoint(_) => {}
        }
    }

    // View managers: watermark kinds re-initialize at their highest
    // installed AL's source cut; replay kinds re-consume their logged
    // delivery sequence from genesis, re-collecting whatever they emit
    // that the crashed run still had in flight.
    let zero = UpdateId::ZERO;
    let mut vm_requeue_actions: Vec<(ViewId, ActionListDelta)> = Vec::new();
    let mut vm_requeue_queries: Vec<(ViewId, QueryToken, QueryRequest)> = Vec::new();
    for e in registry.iter() {
        let g = integrator.partitioning().group_of_view(e.id).unwrap_or(0);
        let vm = &mut vms.get_mut(&e.id).expect("assembled from this registry").vm;
        let watermark = installed_al.get(&e.id).copied().unwrap_or(zero);
        if replayed_views.contains(&e.id) {
            let by_id: BTreeMap<UpdateId, usize> = route_lists[g]
                .iter()
                .enumerate()
                .map(|(i, (id, _, _))| (*id, i))
                .collect();
            let mut outstanding: BTreeMap<QueryToken, QueryRequest> = BTreeMap::new();
            for ev in replay.remove(&e.id).unwrap_or_default() {
                let outs = match ev {
                    ReplayEvent::Update(id) => {
                        let &at = by_id
                            .get(&id)
                            .ok_or(RecoveryError::MissingRoutedPayload { view: e.id, id })?;
                        vm.handle(VmEvent::Update(route_lists[g][at].1.clone()))
                    }
                    ReplayEvent::Answer(token, answer) => {
                        outstanding.remove(&token);
                        vm.handle(VmEvent::Answer { token, answer })
                    }
                    ReplayEvent::Flush => vm.handle(VmEvent::Flush),
                }
                .map_err(SimError::from)?;
                for o in outs {
                    match o {
                        // ALs at or below the install watermark reached
                        // the merge process pre-crash (and fed it via
                        // `ActionInstalled` replay above); later ones
                        // were in flight and must be re-enqueued.
                        VmOutput::Action(al) => {
                            if al.last > watermark {
                                vm_requeue_actions.push((e.id, al));
                            }
                        }
                        VmOutput::Query { token, request } => {
                            outstanding.insert(token, request);
                        }
                    }
                }
            }
            for (token, request) in outstanding {
                vm_requeue_queries.push((e.id, token, request));
            }
        } else if watermark > zero {
            let cut = integrator.group_updates[g]
                .get(&watermark)
                .copied()
                .expect("AL watermark maps to a routed update");
            vm.initialize(&cluster.as_of(cut)).map_err(SimError::from)?;
        }
    }

    let unacked: Vec<(usize, TxnSeq)> = unacked_set.into_iter().collect();
    Ok(RecoveredState {
        assembly,
        commit_log,
        route_lists,
        installed_rel,
        installed_al,
        pending,
        unacked,
        replayed_views,
        delivered,
        vm_requeue_actions,
        vm_requeue_queries,
    })
}

/// Record replay-released transactions without clobbering logged payloads.
fn stash(pending: &mut BTreeMap<(usize, TxnSeq), StoreTxn>, g: usize, released: Vec<StoreTxn>) {
    for t in released {
        pending.entry((g, t.seq)).or_insert(t);
    }
}
