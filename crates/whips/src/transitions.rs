//! The Figure 1 transitions, each written once.
//!
//! One type per box of the figure — [`crate::integrator::Integrator`],
//! [`VmPart`], [`MergePart`] — owns the component's state *and* the durable
//! bookkeeping a checkpoint needs from it; [`commit`] is the warehouse's
//! commit critical section and [`checkpoint_record`] the one
//! `CheckpointState` assembly. A transition appends its WAL record first
//! (log-ahead) to the [`WalSink`] it is handed, changes the component,
//! and returns its outputs; delivering them is the host's business.
//!
//! Two hosts call these functions: the single-threaded
//! [`crate::machine::Machine`] (simulator, explorer) and the thread
//! bodies of [`crate::threaded`]. The protocol the explorer, the durable
//! explorer and the crash sweeps certify is therefore the program the
//! wall-clock numbers come from. Outside crash recovery this module is
//! the only code that constructs a `WalRecord`, so it is also the one
//! place the WAL contract of both hosts is stated (and tested, below).

#![deny(clippy::too_many_lines)]

use crate::integrator::RoutingSnapshot;
use crate::sim::{CommitLogEntry, SimError};
use mvc_core::snapshot::PaintEvent;
use mvc_core::{MergeProcess, MergeSnapshot, TxnSeq, UpdateId, ViewId};
use mvc_durability::{CheckpointState, CommitRecord, WalError, WalRecord, WalWriter};
use mvc_relational::Delta;
use mvc_viewmgr::{ActionListDelta, ViewManager, VmEvent, VmOutput};
use mvc_warehouse::{StoreTxn, Warehouse};
use std::collections::{BTreeMap, BTreeSet};

/// Where a transition's records go. The hosts differ in who owns the log
/// and in what an append error means — not in what is logged, or when.
pub trait WalSink {
    /// A log is attached. Only then do transitions clone payloads into
    /// records and keep checkpoint bookkeeping.
    fn attached(&self) -> bool;
    fn append(&mut self, rec: &WalRecord) -> Result<(), WalError>;
    /// Absolute index the next appended record will get (0 without a
    /// log): a component snapshot taken now is anchored here.
    fn next_index(&self) -> u64;
}

/// The machine's sink: it owns its log, and an append error — the fault
/// harness's `WalError::CrashPoint` included — stops the run. `None`
/// logs nothing.
impl WalSink for Option<WalWriter> {
    fn attached(&self) -> bool {
        self.is_some()
    }
    fn append(&mut self, rec: &WalRecord) -> Result<(), WalError> {
        self.as_mut().map_or(Ok(()), |w| w.append(rec))
    }
    fn next_index(&self) -> u64 {
        self.as_ref().map_or(0, WalWriter::next_index)
    }
}

/// One view manager. Delivery-replay kinds (Strobe/Convergent) recover
/// by re-running their exact input sequence, so every event delivered to
/// them is logged first.
pub struct VmPart {
    view: ViewId,
    pub(crate) vm: Box<dyn ViewManager>,
    replay: bool,
}

impl VmPart {
    pub fn new(view: ViewId, vm: Box<dyn ViewManager>, replay: bool) -> Self {
        VmPart { view, vm, replay }
    }

    /// The manager's kind needs delivery-replay recovery.
    pub fn replays(&self) -> bool {
        self.replay
    }

    /// Hand one event to the manager and return what it emits.
    pub fn deliver<S: WalSink>(
        &mut self,
        event: VmEvent,
        sink: &mut S,
    ) -> Result<Vec<VmOutput>, SimError> {
        if self.replay && sink.attached() {
            let view = self.view;
            sink.append(&match &event {
                VmEvent::Update(u) => WalRecord::VmUpdateDelivered { view, id: u.id },
                // By value: re-asking the sources post-crash would
                // observe a different state than the manager compensated
                // for.
                VmEvent::Answer { token, answer } => WalRecord::VmAnswerDelivered {
                    view,
                    token: *token,
                    answer: answer.clone(),
                },
                VmEvent::Flush => WalRecord::VmFlushDelivered { view },
            })?;
        }
        Ok(self.vm.handle(event)?)
    }
}

/// One merge process (§4–§6) with the install watermarks and retained
/// releases a checkpoint needs from it.
pub struct MergePart {
    group: usize,
    pub(crate) mp: MergeProcess<Delta>,
    /// `None` until a host that takes checkpoints asks for them
    /// ([`MergePart::keep_checkpoint_state`]): retaining a release costs
    /// a copy of its payload.
    marks: Option<InstallMarks>,
}

/// What a checkpoint needs from a merge process beyond the engine's own
/// snapshot.
#[derive(Clone, Default)]
struct InstallMarks {
    /// Highest REL id delivered to the engine.
    installed_rel: UpdateId,
    /// Per view, highest `AL.last` delivered to the engine.
    installed_al: BTreeMap<ViewId, UpdateId>,
    /// Released transactions not yet acknowledged, in release order — a
    /// checkpoint classifies them against the commit log into
    /// released-but-uncommitted and committed-but-unacked.
    retained: Vec<StoreTxn>,
}

/// What one merge transition hands its host.
#[derive(Default)]
pub struct MergeOutput {
    /// Warehouse transactions the commit scheduler released, in order.
    pub released: Vec<StoreTxn>,
    /// Paint transitions drained from the engine (empty unless the host
    /// enabled paint events). Already logged; the hb audit checks them.
    pub paints: Vec<PaintEvent>,
}

impl MergeOutput {
    /// Append a later transition's output (a thread wakeup carrying a
    /// batch runs several transitions before it sends anything).
    pub fn absorb(&mut self, mut next: MergeOutput) {
        self.released.append(&mut next.released);
        self.paints.append(&mut next.paints);
    }
}

/// A merge process's half of a checkpoint.
pub struct MergeSnapshotPart {
    merge: MergeSnapshot<Delta>,
    marks: InstallMarks,
    /// Every record this group logged before has a smaller index and is
    /// reflected in `merge`; everything at or above it must be replayed
    /// into the restored engine.
    anchor: u64,
}

impl MergePart {
    pub fn new(group: usize, mp: MergeProcess<Delta>) -> Self {
        MergePart {
            group,
            mp,
            marks: None,
        }
    }

    pub fn group(&self) -> usize {
        self.group
    }

    /// Keep what [`MergePart::snapshot`] needs, from here on. For hosts
    /// that take checkpoints, before the first message is delivered.
    pub fn keep_checkpoint_state(&mut self) {
        self.marks.get_or_insert_with(InstallMarks::default);
    }

    /// `REL_id` arrives from the integrator.
    pub fn on_rel<S: WalSink>(
        &mut self,
        id: UpdateId,
        rel: BTreeSet<ViewId>,
        sink: &mut S,
    ) -> Result<MergeOutput, SimError> {
        if sink.attached() {
            sink.append(&WalRecord::RelInstalled {
                group: self.group as u64,
                id,
                rel: rel.clone(),
            })?;
        }
        if let Some(m) = &mut self.marks {
            m.installed_rel = m.installed_rel.max(id);
        }
        let released = self.mp.on_rel(id, rel)?;
        self.settle(released, true, sink)
    }

    /// An action list arrives from a view manager.
    pub fn on_action<S: WalSink>(
        &mut self,
        al: ActionListDelta,
        sink: &mut S,
    ) -> Result<MergeOutput, SimError> {
        if sink.attached() {
            sink.append(&WalRecord::ActionInstalled {
                group: self.group as u64,
                al: al.clone(),
            })?;
        }
        if let Some(m) = &mut self.marks {
            let w = m.installed_al.entry(al.view).or_insert(UpdateId::ZERO);
            *w = (*w).max(al.last);
        }
        let released = self.mp.on_action(al)?;
        self.settle(released, true, sink)
    }

    /// The warehouse acknowledges a commit.
    pub fn on_committed<S: WalSink>(
        &mut self,
        seq: TxnSeq,
        sink: &mut S,
    ) -> Result<MergeOutput, SimError> {
        sink.append(&WalRecord::CommitAcked {
            group: self.group as u64,
            seq,
        })?;
        if let Some(m) = &mut self.marks {
            m.retained.retain(|t| t.seq != seq);
        }
        let released = self.mp.on_committed(seq);
        self.settle(released, false, sink)
    }

    /// Force out any batched remainder (drain phase).
    pub fn flush<S: WalSink>(&mut self, sink: &mut S) -> Result<MergeOutput, SimError> {
        let released = self.mp.flush();
        self.settle(released, false, sink)
    }

    /// The tail every merge transition shares: drain the paint
    /// transitions an engine input caused into the audit trail (recovery
    /// never replays them; acks and flushes only move the commit
    /// scheduler and paint nothing), then log each release.
    fn settle<S: WalSink>(
        &mut self,
        released: Vec<StoreTxn>,
        painted: bool,
        sink: &mut S,
    ) -> Result<MergeOutput, SimError> {
        let paints = if painted {
            self.mp.take_paint_events()
        } else {
            Vec::new()
        };
        if sink.attached() {
            for e in &paints {
                sink.append(&WalRecord::Paint {
                    group: self.group as u64,
                    update: e.update,
                    view: e.view,
                    color: e.color,
                    state: e.state,
                })?;
            }
            for t in &released {
                // Full payload, logged before the host sends it on: once
                // this hits the disk the transaction survives a crash
                // even if the committer never sees it, and one released
                // before a checkpoint but committed after it cannot be
                // regenerated by tail replay.
                sink.append(&WalRecord::GroupReleased {
                    group: self.group as u64,
                    txn: t.clone(),
                })?;
            }
        }
        if let Some(m) = &mut self.marks {
            m.retained.extend(released.iter().cloned());
        }
        Ok(MergeOutput { released, paints })
    }

    /// This component's checkpoint half, anchored at the sink's next
    /// record.
    pub fn snapshot<S: WalSink>(&self, sink: &S) -> MergeSnapshotPart {
        MergeSnapshotPart {
            merge: self.mp.snapshot(),
            marks: self.marks.clone().unwrap_or_default(),
            anchor: sink.next_index(),
        }
    }
}

/// The commit critical section for a run of released transactions (one,
/// on the machine; whatever was queued, on a committer thread): log every
/// `TxnCommitted`, then apply each transaction and record it in the
/// commit log, which stays aligned 1:1 with `warehouse.history()`. The
/// host serializes callers (the threaded runtime holds the store's lock)
/// and publishes cuts and acks afterwards.
pub fn commit<'a, S: WalSink>(
    warehouse: &mut Warehouse,
    commit_log: &mut Vec<CommitLogEntry>,
    run: impl Iterator<Item = (usize, &'a StoreTxn)> + Clone,
    sink: &mut S,
) -> Result<(), SimError> {
    for (g, txn) in run.clone() {
        sink.append(&WalRecord::TxnCommitted {
            group: g as u64,
            seq: txn.seq,
        })?;
    }
    for (g, txn) in run {
        warehouse.apply(txn)?;
        commit_log.push(CommitLogEntry {
            group: g,
            seq: txn.seq,
            rows: txn.rows.clone(),
            views: txn.views.clone(),
        });
    }
    Ok(())
}

/// Assemble a self-contained checkpoint from the component snapshots
/// (merge parts in group order) and the store. Callers guarantee the
/// commit log has not moved since the merge snapshots were taken — the
/// machine is single-threaded, the threaded round is run by the only
/// committer — so a retained transaction present in the log is
/// committed-but-unacked and any other is released-but-uncommitted.
pub fn checkpoint_record(
    routing: RoutingSnapshot,
    merges: Vec<MergeSnapshotPart>,
    warehouse: &Warehouse,
    commit_log: &[CommitLogEntry],
) -> WalRecord {
    let committed: BTreeSet<(usize, TxnSeq)> =
        commit_log.iter().map(|e| (e.group, e.seq)).collect();
    let mut pending = Vec::new();
    let mut unacked = Vec::new();
    let mut snapshots = Vec::with_capacity(merges.len());
    let mut installed_rel = Vec::with_capacity(merges.len());
    let mut installed_al = BTreeMap::new();
    let mut merge_anchors = Vec::with_capacity(merges.len());
    for (g, part) in merges.into_iter().enumerate() {
        for t in part.marks.retained {
            if committed.contains(&(g, t.seq)) {
                unacked.push((g as u64, t.seq));
            } else {
                pending.push((g as u64, t));
            }
        }
        snapshots.push(part.merge);
        installed_rel.push(part.marks.installed_rel);
        installed_al.extend(part.marks.installed_al);
        merge_anchors.push(part.anchor);
    }
    WalRecord::Checkpoint(Box::new(CheckpointState {
        warehouse: warehouse.snapshot(),
        merges: snapshots,
        commit_log: commit_log
            .iter()
            .map(|e| CommitRecord {
                group: e.group as u64,
                seq: e.seq,
                rows: e.rows.clone(),
                views: e.views.clone(),
            })
            .collect(),
        route_lists: routing.route_lists,
        installed_rel,
        installed_al: installed_al.into_iter().collect(),
        pending,
        unacked,
        last_logged_src: routing.last_logged_src,
        next_id: routing.next_id,
        received: routing.received,
        dropped: routing.dropped,
        merge_anchors,
        routing_anchor: routing.anchor,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{assemble, Assembly};
    use crate::registry::{ManagerKind, ViewRegistry};
    use mvc_core::CommitPolicy;
    use mvc_relational::{tuple, Schema, ViewDef};
    use mvc_source::{SourceCluster, SourceId, SourceUpdate, WriteOp};
    use mvc_viewmgr::answer_query;
    use std::sync::Arc;

    /// A sink that records the kind of every record it is handed. It can
    /// pose as detached (the appends still arrive, so the test sees what
    /// a transition would have logged) and can crash at its n-th append.
    struct Journal {
        kinds: Vec<&'static str>,
        attached: bool,
        crash_at: Option<usize>,
    }

    impl WalSink for Journal {
        fn attached(&self) -> bool {
            self.attached
        }
        fn append(&mut self, rec: &WalRecord) -> Result<(), WalError> {
            if self.crash_at == Some(self.kinds.len()) {
                return Err(WalError::CrashPoint);
            }
            self.kinds.push(rec.kind());
            Ok(())
        }
        fn next_index(&self) -> u64 {
            self.kinds.len() as u64
        }
    }

    /// `V1 = R ⋈ S` under Strobe (delivery-replay class) beside `V2 = R`
    /// self-maintained (watermark class, never queries), one merge group,
    /// paint events on; one committed insert into R, relevant to both.
    fn rig(checkpoints: bool) -> (SourceCluster, Assembly, Arc<SourceUpdate>) {
        let mut cluster = SourceCluster::new(8);
        let ints = |cols: &[&str]| Schema::ints(cols);
        cluster
            .create_relation(SourceId(0), "R", ints(&["a", "b"]))
            .unwrap();
        cluster
            .create_relation(SourceId(1), "S", ints(&["b", "c"]))
            .unwrap();
        let join = ViewDef::builder("V1")
            .from("R")
            .from("S")
            .join_on("R.b", "S.b");
        let copy = ViewDef::builder("V2").from("R");
        let mut registry = ViewRegistry::new();
        registry.add(
            ViewId(1),
            join.build(cluster.catalog()).unwrap(),
            ManagerKind::Strobe,
        );
        registry.add(
            ViewId(2),
            copy.build(cluster.catalog()).unwrap(),
            ManagerKind::SelfMaintaining,
        );
        let policy = CommitPolicy::DependencyAware;
        let mut parts = assemble(&registry, false, None, None, policy, true, false).unwrap();
        parts.mps[0].mp.enable_paint_events();
        if checkpoints {
            parts.keep_checkpoint_state();
        }
        let write = vec![WriteOp::insert("R", tuple![1, 2])];
        let u = Arc::new(cluster.execute(SourceId(0), write).unwrap());
        (cluster, parts, u)
    }

    /// Run every transition once, in pipeline order, and return what each
    /// appended. Stops at the first error, leaving `parts` as they were
    /// when the sink refused the record.
    fn drive(
        cluster: &SourceCluster,
        parts: &mut Assembly,
        u: Arc<SourceUpdate>,
        sink: &mut Journal,
    ) -> Result<Vec<(&'static str, Vec<&'static str>)>, SimError> {
        let mut rows = Vec::new();
        let mut mark = 0;
        let mut row = |step, sink: &Journal| {
            rows.push((step, sink.kinds[mark..].to_vec()));
            mark = sink.kinds.len();
        };
        let r = parts.integrator.route(u, sink)?.remove(0);
        row("route", sink);
        let mp = &mut parts.mps[0];
        assert!(mp.on_rel(r.numbered.id, r.rel, sink)?.released.is_empty());
        row("on_rel", sink);
        // seal: both managers get the routed update's Arc handle
        let update = || VmEvent::Update(r.numbered.clone());
        let outs = parts
            .vms
            .get_mut(&ViewId(2))
            .unwrap()
            .deliver(update(), sink)?;
        row("deliver update (watermark class)", sink);
        let [VmOutput::Action(al)] = &outs[..] else {
            panic!("a self-maintaining manager answers an update with its action list")
        };
        assert!(mp.on_action(al.clone(), sink)?.released.is_empty());
        row("on_action (row still waiting for V1)", sink);
        let strobe = parts.vms.get_mut(&ViewId(1)).unwrap();
        let outs = strobe.deliver(update(), sink)?;
        row("deliver update (replay class)", sink);
        let [VmOutput::Query { token, request }] = &outs[..] else {
            panic!("Strobe answers an update with a source query")
        };
        let answer = answer_query(cluster, request)?;
        let mut outs = strobe.deliver(
            VmEvent::Answer {
                token: *token,
                answer,
            },
            sink,
        )?;
        row("deliver answer", sink);
        outs.extend(strobe.deliver(VmEvent::Flush, sink)?);
        row("deliver flush", sink);
        let [VmOutput::Action(al)] = &outs[..] else {
            panic!("Strobe emits its batch once no query is outstanding")
        };
        let out = mp.on_action(al.clone(), sink)?;
        row("on_action (row complete)", sink);
        let [txn] = &out.released[..] else {
            panic!("the completed row releases one transaction")
        };
        let mut log = Vec::new();
        commit(
            &mut parts.warehouse,
            &mut log,
            std::iter::once((0, txn)),
            sink,
        )?;
        row("commit", sink);
        assert_eq!((parts.warehouse.commit_count(), log.len()), (1, 1));
        // Released, committed, not yet acknowledged: a checkpoint taken
        // now must classify the retained transaction as unacked.
        let ck = checkpoint_record(
            parts.integrator.snapshot(sink),
            vec![mp.snapshot(sink)],
            &parts.warehouse,
            &log,
        );
        let WalRecord::Checkpoint(ck) = ck else {
            panic!("checkpoint_record builds a Checkpoint")
        };
        let durable = usize::from(sink.attached);
        assert_eq!((ck.pending.len(), ck.unacked.len()), (0, durable));
        assert_eq!(
            (ck.route_lists.len(), ck.installed_al.len()),
            (durable, 2 * durable)
        );
        assert!(mp.on_committed(txn.seq, sink)?.released.is_empty());
        row("on_committed", sink);
        assert!(mp.flush(sink)?.released.is_empty());
        row("flush", sink);
        Ok(rows)
    }

    /// The WAL contract of both hosts: which records each transition
    /// writes, in which order; that every record is written *ahead* of
    /// the state change it describes; and that without a log attached no
    /// payload is cloned into a record and no bookkeeping is kept.
    #[test]
    fn transitions_journal_in_log_ahead_order() {
        let journal = |attached, crash_at| Journal {
            kinds: Vec::new(),
            attached,
            crash_at,
        };
        let (cluster, mut parts, u) = rig(true);
        let mut sink = journal(true, None);
        let rows = drive(&cluster, &mut parts, u, &mut sink).unwrap();
        let paints = [
            "action-installed",
            "paint",
            "paint",
            "paint",
            "group-released",
        ];
        let expected: [(&str, &[&str]); 11] = [
            ("route", &["source-update"]),
            ("on_rel", &["rel-installed"]),
            ("deliver update (watermark class)", &[]),
            (
                "on_action (row still waiting for V1)",
                &["action-installed", "paint"],
            ),
            ("deliver update (replay class)", &["vm-update-delivered"]),
            ("deliver answer", &["vm-answer-delivered"]),
            ("deliver flush", &["vm-flush-delivered"]),
            ("on_action (row complete)", &paints),
            ("commit", &["txn-committed"]),
            ("on_committed", &["commit-acked"]),
            ("flush", &[]),
        ];
        for ((step, wrote), (expected_step, expected)) in rows.iter().zip(expected) {
            assert_eq!((*step, &wrote[..]), (expected_step, expected));
        }

        // Detached, no checkpoints asked for: only the two payload-free
        // records are even built, and `drive` checks that no checkpoint
        // state was kept.
        let (cluster, mut parts, u) = rig(false);
        let mut sink = journal(false, None);
        drive(&cluster, &mut parts, u, &mut sink).unwrap();
        assert_eq!(sink.kinds, ["txn-committed", "commit-acked"]);

        // Log-ahead: a sink that refuses the n-th record leaves the
        // component that wrote it unmoved.
        type Unmoved = fn(&Assembly) -> bool;
        let unmoved: [(usize, &str, Unmoved); 4] = [
            (0, "source-update", |p| p.integrator.received() == 0),
            (1, "rel-installed", |p| p.mps[0].mp.live_rows() == 0),
            (4, "vm-update-delivered", |p| p.vms[&ViewId(1)].vm.is_idle()),
            (12, "txn-committed", |p| p.warehouse.commit_count() == 0),
        ];
        for (n, kind, holds) in unmoved {
            let (cluster, mut parts, u) = rig(true);
            let mut sink = journal(true, Some(n));
            let crashed = drive(&cluster, &mut parts, u, &mut sink);
            assert!(matches!(crashed, Err(SimError::Wal(WalError::CrashPoint))));
            assert!(holds(&parts), "{kind} was written after its transition");
        }
    }
}
