//! The Figure 1 graph as one explicit state machine.
//!
//! Sources → integrator → view managers → merge processes → warehouse:
//! every process is a component of [`Machine`], every arrow a FIFO
//! channel named by a [`ChanId`], and per-channel FIFO is the *only*
//! ordering guarantee — the paper's assumption that "messages from the
//! same process must arrive in the order sent". [`Machine::enabled`]
//! lists the [`Choice`]s open in the current state and [`Machine::step`]
//! executes one. What a component *does* when a message reaches it — its
//! WAL record first (log-ahead), then its state change — is a transition
//! of [`crate::transitions`], shared with the threaded runtime; the
//! machine owns the FIFOs between the components and delivers what the
//! transitions return.
//!
//! The machine owns no scheduler. The simulator (`crate::sim`) draws
//! choices from a seeded lottery; the explorer (`mvc_analysis`)
//! enumerates them. Whatever a scheduler adds at a transition — step-unit
//! latency bookkeeping, read-path publication, checkpoints, §1.2 view
//! installation — it adds through its [`Driver`], which receives one
//! [`Event`] per transition. The driver is a type parameter, so a driver
//! that ignores an event (the explorer ignores all of them) pays nothing
//! for it.

#![deny(clippy::too_many_lines)]

use crate::integrator::{GroupRouting, Integrator};
use crate::metrics::SimMetrics;
use crate::obs::PipelineObs;
use crate::registry::{ViewEntry, ViewRegistry};
use crate::shard::ShardTopology;
use crate::sim::{CommitLogEntry, SimError, SimReport, WorkloadTxn};
use crate::transitions::{commit, MergePart, VmPart};
use mvc_core::{
    CommitPolicy, ConsistencyLevel, MergeAlgorithm, MergeProcess, Partitioning, TxnSeq, UpdateId,
    ViewId,
};
use mvc_durability::{DurabilityConfig, WalWriter};
use mvc_relational::{Relation, RelationName};
use mvc_source::{GlobalSeq, SourceCluster, SourceUpdate};
use mvc_viewmgr::{
    answer_query, ActionListDelta, NumberedUpdate, QueryAnswer, QueryRequest, QueryToken, VmError,
    VmEvent, VmOutput,
};
use mvc_warehouse::{StoreTxn, Warehouse};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Checkpoint interval of every deployment's `SourceCluster`: an as-of
/// query replays at most this many deltas per relation.
pub const SOURCE_CHECKPOINT_INTERVAL: usize = 64;

/// A named channel of the pipeline (the arrows of Figure 1). The `Ord`
/// order is the canonical order of [`Machine::enabled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChanId {
    /// Sources → integrator (updates, forwarded query answers).
    SrcToInt,
    /// Integrator → one view manager (updates, answers, flush nudges).
    IntToVm(ViewId),
    /// Integrator → one merge group (`REL_i` relevance sets).
    IntToMp(usize),
    /// One view manager → its merge group (action lists).
    VmToMp(ViewId),
    /// One view manager → the query service (source queries).
    VmToQs(ViewId),
    /// One merge group → the warehouse applier (released `WT`s).
    MpToWh(usize),
    /// Warehouse applier → one merge group (commit acknowledgements).
    WhToMp(usize),
}

/// One scheduler choice: the unit of interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Choice {
    /// Execute the next workload transaction at the sources.
    Inject,
    /// Deliver the head message of the named channel.
    Deliver(ChanId),
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Choice::Inject => write!(f, "I"),
            Choice::Deliver(ChanId::SrcToInt) => write!(f, "S"),
            Choice::Deliver(ChanId::IntToVm(v)) => write!(f, "v{}", v.0),
            Choice::Deliver(ChanId::IntToMp(g)) => write!(f, "m{g}"),
            Choice::Deliver(ChanId::VmToMp(v)) => write!(f, "a{}", v.0),
            Choice::Deliver(ChanId::VmToQs(v)) => write!(f, "q{}", v.0),
            Choice::Deliver(ChanId::MpToWh(g)) => write!(f, "W{g}"),
            Choice::Deliver(ChanId::WhToMp(g)) => write!(f, "C{g}"),
        }
    }
}

/// Messages on the Figure 1 arrows.
#[derive(Debug)]
pub(crate) enum Msg {
    /// sources → integrator: a committed transaction's report. The
    /// payload is shared zero-copy with the WAL and every routed view.
    SrcUpdate(Arc<SourceUpdate>),
    /// driver → integrator: §1.2 dynamic view installation. Rides the
    /// update stream's FIFO so the integrator sees it at a well-defined
    /// cut.
    InstallView(Box<ViewEntry>),
    /// integrator → merge process: grow the VUT by one column before the
    /// install row's REL arrives (same FIFO, so ordering is guaranteed).
    AddView(ViewId),
    /// integrator → view manager.
    Update(NumberedUpdate),
    /// integrator → merge process.
    Rel(UpdateId, BTreeSet<ViewId>),
    /// view manager → merge process (and, for a §1.2 install's initial
    /// load, integrator → merge process).
    Action(ActionListDelta),
    /// view manager → query server.
    Query(QueryToken, Box<QueryRequest>),
    /// query server → integrator → view manager. Answers ride the same
    /// source→integrator→VM pipeline as updates (the WHIPS topology), so
    /// per-source FIFO guarantees an answer computed at state `s` arrives
    /// *after* every update ≤ `s` — the ordering Strobe's compensation
    /// relies on.
    AnswerFor(ViewId, QueryToken, QueryAnswer),
    /// integrator → view manager.
    Answer(QueryToken, QueryAnswer),
    /// merge process → warehouse committer.
    Txn(StoreTxn),
    /// warehouse committer → merge process.
    Committed(TxnSeq),
    /// drain phase → view manager.
    Flush,
}

/// What [`assemble`] builds: the Figure 1 components of one deployment,
/// before any scheduler or channel exists.
pub struct Assembly {
    /// Holds the registry and the §6.1 partitioning (coarsened to the
    /// group cap).
    pub integrator: Integrator,
    /// Views of each merge group.
    pub group_views: Vec<BTreeSet<ViewId>>,
    /// One merge process per group.
    pub mps: Vec<MergePart>,
    /// MVC level each merge group guarantees (engine × commit policy).
    pub guarantees: Vec<ConsistencyLevel>,
    pub vms: BTreeMap<ViewId, VmPart>,
    /// Every registered view, empty — the workload drives everything
    /// from `ss_0`.
    pub warehouse: Warehouse,
}

impl Assembly {
    /// Have the components keep what their checkpoint snapshots need
    /// (routing history, install watermarks, retained releases). A host
    /// that takes checkpoints calls this before anything is delivered;
    /// the others never pay for it.
    pub fn keep_checkpoint_state(&mut self) {
        self.integrator.keep_checkpoint_state();
        self.mps
            .iter_mut()
            .for_each(MergePart::keep_checkpoint_state);
    }
}

/// The one deployment assembly every runtime (and crash recovery) starts
/// from. `algorithm: None` selects each group's engine from its weakest
/// manager level (§6.3).
pub fn assemble(
    registry: &ViewRegistry,
    partition: bool,
    groups: Option<usize>,
    algorithm: Option<MergeAlgorithm>,
    commit_policy: CommitPolicy,
    tuple_relevance: bool,
    record_snapshots: bool,
) -> Result<Assembly, VmError> {
    let mut partitioning = registry.partitioning(partition);
    if let Some(cap) = groups {
        partitioning = partitioning.coarsen(cap);
    }
    let groups = partitioning.group_count().max(1);
    let mut group_views: Vec<BTreeSet<ViewId>> = vec![BTreeSet::new(); groups];
    for id in registry.ids() {
        group_views[partitioning.group_of_view(id).unwrap_or(0)].insert(id);
    }
    let mut mps = Vec::with_capacity(groups);
    for (g, views) in group_views.iter().enumerate() {
        let levels: Vec<(ViewId, ConsistencyLevel)> = registry
            .levels()
            .into_iter()
            .filter(|(v, _)| views.contains(v))
            .collect();
        let mp = match algorithm {
            Some(alg) => MergeProcess::new(alg, levels.iter().map(|(v, _)| *v), commit_policy),
            None => MergeProcess::for_managers(levels, commit_policy),
        };
        mps.push(MergePart::new(g, mp));
    }
    let mut vms = BTreeMap::new();
    for e in registry.iter() {
        let vm = e.kind.build(e.id, e.def.clone())?;
        vms.insert(e.id, VmPart::new(e.id, vm, e.kind.needs_delivery_replay()));
    }
    Ok(Assembly {
        integrator: Integrator::new(registry.clone(), partitioning, tuple_relevance),
        warehouse: fresh_warehouse(registry.iter(), record_snapshots),
        guarantees: mps.iter().map(|m| m.mp.guarantees()).collect(),
        group_views,
        mps,
        vms,
    })
}

/// A warehouse holding an empty slot per view.
fn fresh_warehouse<'a>(
    views: impl Iterator<Item = &'a ViewEntry>,
    record_snapshots: bool,
) -> Warehouse {
    let mut warehouse = Warehouse::new(record_snapshots);
    for e in views {
        warehouse
            .register_view(
                e.id,
                e.def.name.clone(),
                // Shares the definition's schema handle — no deep copy.
                Relation::shared(e.def.schema.clone()),
            )
            .expect("registry ids are unique");
    }
    warehouse
}

/// One empty store per shard, each holding the views of the merge groups
/// the shard owns.
pub(crate) fn shard_stores(
    registry: &ViewRegistry,
    partitioning: &Partitioning<RelationName>,
    topology: &ShardTopology,
    record_snapshots: bool,
) -> Vec<Warehouse> {
    let shard_of = |e: &ViewEntry| topology.shard_of(partitioning.group_of_view(e.id).unwrap_or(0));
    (0..topology.shards())
        .map(|s| {
            fresh_warehouse(
                registry.iter().filter(|e| shard_of(e) == s),
                record_snapshots,
            )
        })
        .collect()
}

/// One transition of the machine, as its [`Driver`] sees it. Emitted
/// after the transition's own state change unless noted.
pub enum Event<'a> {
    /// A message was appended to the channel, which now holds this many.
    Sent(ChanId, usize),
    /// The channel's head message was popped and is about to be handled.
    Delivering(ChanId),
    /// The next workload transaction committed at the sources.
    Injected(GlobalSeq),
    /// The integrator routed a source update (empty = irrelevant to
    /// every view); fan-out messages follow.
    Routed(GlobalSeq, &'a [GroupRouting]),
    /// A numbered update is about to be handled by the view's manager.
    VmUpdate(ViewId, UpdateId),
    /// The view's manager emitted an action list covering `first..=last`.
    VmAction(ViewId, UpdateId, UpdateId),
    /// The group's engine consumed `REL_id`; releases follow.
    RelInstalled(usize, UpdateId),
    /// The group's engine consumed the view's action list ending at
    /// `last`; releases follow.
    ActionInstalled(usize, ViewId, UpdateId),
    /// The group's engine released a warehouse transaction.
    Released(usize, &'a StoreTxn),
    /// The warehouse committed the group's transaction (the ack is
    /// already queued).
    Committed(usize, &'a StoreTxn),
    /// §1.2: the integrator received a view-installation request. The
    /// install protocol is the driver's to run.
    Install(&'a ViewEntry),
}

/// What a scheduler adds to the machine's transitions.
pub trait Driver: Sized {
    /// Called once per [`Event`]. The default ignores everything except
    /// a view-installation request, which it refuses.
    fn on(_machine: &mut Machine<Self>, event: Event<'_>) -> Result<(), SimError> {
        match event {
            Event::Install(e) => Err(SimError::Unsupported(format!(
                "this driver does not install views dynamically (asked for {})",
                e.id
            ))),
            _ => Ok(()),
        }
    }
}

/// The driver that adds nothing.
impl Driver for () {}

/// The Figure 1 state machine (see the module docs).
pub struct Machine<D> {
    pub(crate) cluster: SourceCluster,
    /// Integrator, view managers, merge processes, warehouse.
    pub(crate) parts: Assembly,
    /// Per channel: FIFO of in-flight messages.
    pub(crate) channels: BTreeMap<ChanId, VecDeque<Msg>>,
    pub(crate) workload: VecDeque<WorkloadTxn>,
    /// Fault injection: buffer released transactions and commit each
    /// buffer of this depth in *reversed* order (the §4.3 hazard the
    /// commit scheduler exists to prevent). `None` = commit on delivery.
    reorder_depth: Option<usize>,
    pub(crate) reorder_buf: Vec<(usize, StoreTxn)>,
    pub(crate) metrics: SimMetrics,
    /// Aligned 1:1 with `warehouse.history()`.
    pub(crate) commit_log: Vec<CommitLogEntry>,
    /// Write-ahead log (durable mode only): the sink every transition
    /// logs to. An append error stops the run.
    pub(crate) wal: Option<WalWriter>,
    pub(crate) driver: D,
}

impl<D: Driver> Machine<D> {
    /// A machine at rest: no message in flight, `workload` not yet
    /// injected. A fresh deployment passes [`assemble`]'s output as is;
    /// crash recovery passes restored components.
    pub fn new(
        cluster: SourceCluster,
        parts: Assembly,
        workload: Vec<WorkloadTxn>,
        reorder_depth: Option<usize>,
        driver: D,
    ) -> Self {
        Machine {
            cluster,
            channels: BTreeMap::new(),
            workload: workload.into(),
            reorder_depth,
            reorder_buf: Vec::new(),
            metrics: SimMetrics::default(),
            parts,
            commit_log: Vec::new(),
            wal: None,
            driver,
        }
    }

    /// Journal every protocol event from here on. Delivery-replay manager
    /// kinds (Strobe/Convergent) need their full event history from
    /// genesis, so their presence pins every segment (compaction off).
    pub fn attach_wal(&mut self, config: &DurabilityConfig) -> Result<(), SimError> {
        let mut wal = WalWriter::create(config)?;
        if self.parts.vms.values().any(VmPart::replays) {
            wal.set_compaction(false);
        }
        self.wal = Some(wal);
        Ok(())
    }

    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// Number of merge groups.
    pub fn groups(&self) -> usize {
        self.parts.mps.len()
    }

    /// Group owning a view — delegates to the §6.1 partitioning.
    pub fn group_of_view(&self, v: ViewId) -> usize {
        self.parts
            .integrator
            .partitioning()
            .group_of_view(v)
            .unwrap_or(0)
    }

    /// Every view with a manager, ascending.
    pub fn views(&self) -> impl Iterator<Item = ViewId> + '_ {
        self.parts.vms.keys().copied()
    }

    /// Workload transactions not yet injected.
    pub fn pending_workload(&self) -> usize {
        self.workload.len()
    }

    fn nonempty(&self) -> impl Iterator<Item = ChanId> + '_ {
        self.channels
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&c, _)| c)
    }

    /// Channels with a message to deliver, in `ChanId` order.
    pub fn nonempty_channels(&self) -> Vec<ChanId> {
        self.nonempty().collect()
    }

    /// Choices enabled in the current state, in canonical order: inject
    /// first, then nonempty channels in `ChanId` order.
    pub fn enabled(&self) -> Vec<Choice> {
        let inject = (!self.workload.is_empty()).then_some(Choice::Inject);
        inject
            .into_iter()
            .chain(self.nonempty().map(Choice::Deliver))
            .collect()
    }

    /// No message in flight and every component idle. (The workload may
    /// still hold transactions.)
    pub fn quiescent(&self) -> bool {
        self.channels.values().all(VecDeque::is_empty)
            && self.parts.vms.values().all(|v| v.vm.is_idle())
            && self.parts.mps.iter().all(|m| m.mp.is_quiescent())
            && self.reorder_buf.is_empty()
    }

    /// Execute one choice. Stepping a choice that is not enabled fails
    /// with [`SimError::NotEnabled`].
    pub fn step(&mut self, choice: Choice) -> Result<(), SimError> {
        self.metrics.steps += 1;
        match choice {
            Choice::Inject => self.inject(),
            Choice::Deliver(chan) => self.deliver(chan),
        }
    }

    fn emit(&mut self, event: Event<'_>) -> Result<(), SimError> {
        D::on(self, event)
    }

    pub(crate) fn send(&mut self, chan: ChanId, msg: Msg) -> Result<(), SimError> {
        let q = self.channels.entry(chan).or_default();
        q.push_back(msg);
        let depth = q.len();
        self.emit(Event::Sent(chan, depth))
    }

    fn inject(&mut self) -> Result<(), SimError> {
        let t = self
            .workload
            .pop_front()
            .ok_or(SimError::NotEnabled(Choice::Inject))?;
        let update = if t.global {
            self.cluster.execute_global(t.source, t.writes)?
        } else {
            self.cluster.execute(t.source, t.writes)?
        };
        self.metrics.injected += 1;
        self.emit(Event::Injected(update.seq))?;
        self.send(ChanId::SrcToInt, Msg::SrcUpdate(Arc::new(update)))
    }

    /// Deliver the head message of a channel.
    fn deliver(&mut self, chan: ChanId) -> Result<(), SimError> {
        let msg = self
            .channels
            .get_mut(&chan)
            .and_then(VecDeque::pop_front)
            .ok_or(SimError::NotEnabled(Choice::Deliver(chan)))?;
        self.metrics.messages_delivered += 1;
        self.emit(Event::Delivering(chan))?;
        match (chan, msg) {
            (ChanId::SrcToInt, Msg::SrcUpdate(u)) => self.route(u),
            (ChanId::SrcToInt, Msg::AnswerFor(v, token, answer)) => {
                // Forwarded on the *same* FIFO as this view's updates so
                // that the end-to-end order is preserved.
                self.send(ChanId::IntToVm(v), Msg::Answer(token, answer))
            }
            (ChanId::SrcToInt, Msg::InstallView(entry)) => self.emit(Event::Install(&entry)),
            (ChanId::IntToVm(v), Msg::Update(u)) => {
                self.emit(Event::VmUpdate(v, u.id))?;
                self.vm_event(v, VmEvent::Update(u))
            }
            (ChanId::IntToVm(v), Msg::Answer(token, answer)) => {
                self.vm_event(v, VmEvent::Answer { token, answer })
            }
            (ChanId::IntToVm(v), Msg::Flush) => self.flush_vm(v),
            (ChanId::VmToQs(v), Msg::Query(token, request)) => {
                // Answered at the current source state *now* — the delay
                // between issue and this step is the intertwining window.
                // The answer is routed through the integrator pipeline so
                // it cannot overtake the updates it reflects.
                let answer = answer_query(&self.cluster, &request)?;
                self.send(ChanId::SrcToInt, Msg::AnswerFor(v, token, answer))
            }
            (ChanId::IntToMp(g), Msg::AddView(v)) => {
                self.parts.mps[g].mp.add_view(v);
                Ok(())
            }
            (ChanId::IntToMp(g), Msg::Rel(id, rel)) => self.install_rel(g, id, rel),
            // IntToMp carries the install AL of a freshly added view (§1.2).
            (ChanId::IntToMp(g), Msg::Action(al)) => self.install_action(g, al),
            (ChanId::VmToMp(v), Msg::Action(al)) => self.install_action(self.group_of_view(v), al),
            (ChanId::MpToWh(g), Msg::Txn(txn)) => self.commit_or_buffer(g, txn),
            (ChanId::WhToMp(g), Msg::Committed(seq)) => {
                let out = self.parts.mps[g].on_committed(seq, &mut self.wal)?;
                self.release(g, out.released)
            }
            (c, m) => Err(SimError::Unsupported(format!(
                "message {m:?} on channel {c:?}"
            ))),
        }
    }

    /// Integrator: number a source update, compute `REL_i` per group and
    /// fan out.
    fn route(&mut self, u: Arc<SourceUpdate>) -> Result<(), SimError> {
        let seq = u.seq;
        let routings = self.parts.integrator.route(u, &mut self.wal)?;
        self.emit(Event::Routed(seq, &routings))?;
        for r in routings {
            self.send(
                ChanId::IntToMp(r.group),
                Msg::Rel(r.numbered.id, r.rel.clone()),
            )?;
            for v in r.rel {
                // seal: fan-out shares the routed payload's Arc
                // handle, never the tuple data
                self.send(ChanId::IntToVm(v), Msg::Update(r.numbered.clone()))?;
            }
        }
        Ok(())
    }

    /// Hand one event to a view manager and forward what it emits.
    fn vm_event(&mut self, v: ViewId, event: VmEvent) -> Result<(), SimError> {
        let outs = self
            .parts
            .vms
            .get_mut(&v)
            .expect("known view")
            .deliver(event, &mut self.wal)?;
        for o in outs {
            match o {
                VmOutput::Action(al) => {
                    self.emit(Event::VmAction(v, al.first, al.last))?;
                    self.send(ChanId::VmToMp(v), Msg::Action(al))?;
                }
                VmOutput::Query { token, request } => {
                    self.send(ChanId::VmToQs(v), Msg::Query(token, Box::new(request)))?;
                }
            }
        }
        Ok(())
    }

    /// Flush one view manager (batching managers emit what they hold;
    /// convergent managers run their correction pass).
    pub fn flush_vm(&mut self, v: ViewId) -> Result<(), SimError> {
        self.vm_event(v, VmEvent::Flush)
    }

    /// Flush one merge process, forwarding whatever it releases.
    pub fn flush_merge(&mut self, g: usize) -> Result<(), SimError> {
        let out = self.parts.mps[g].flush(&mut self.wal)?;
        self.release(g, out.released)
    }

    fn install_rel(
        &mut self,
        g: usize,
        id: UpdateId,
        rel: BTreeSet<ViewId>,
    ) -> Result<(), SimError> {
        let out = self.parts.mps[g].on_rel(id, rel, &mut self.wal)?;
        self.emit(Event::RelInstalled(g, id))?;
        self.release(g, out.released)
    }

    fn install_action(&mut self, g: usize, al: ActionListDelta) -> Result<(), SimError> {
        let (view, last) = (al.view, al.last);
        let out = self.parts.mps[g].on_action(al, &mut self.wal)?;
        self.emit(Event::ActionInstalled(g, view, last))?;
        self.release(g, out.released)
    }

    fn release(&mut self, g: usize, released: Vec<StoreTxn>) -> Result<(), SimError> {
        for t in released {
            self.emit(Event::Released(g, &t))?;
            self.send(ChanId::MpToWh(g), Msg::Txn(t))?;
        }
        Ok(())
    }

    fn commit_or_buffer(&mut self, g: usize, txn: StoreTxn) -> Result<(), SimError> {
        match self.reorder_depth {
            Some(depth) => {
                self.reorder_buf.push((g, txn));
                if self.reorder_buf.len() >= depth.max(1) {
                    self.flush_reorder_buffer()?;
                }
                Ok(())
            }
            None => self.commit(g, txn),
        }
    }

    /// Commit whatever the fault-injection buffer holds, in reverse.
    pub fn flush_reorder_buffer(&mut self) -> Result<(), SimError> {
        let buf: Vec<(usize, StoreTxn)> = self.reorder_buf.drain(..).rev().collect();
        for (g, txn) in buf {
            self.commit(g, txn)?;
        }
        Ok(())
    }

    fn commit(&mut self, g: usize, txn: StoreTxn) -> Result<(), SimError> {
        commit(
            &mut self.parts.warehouse,
            &mut self.commit_log,
            std::iter::once((g, &txn)),
            &mut self.wal,
        )?;
        self.metrics.commits += 1;
        self.send(ChanId::WhToMp(g), Msg::Committed(txn.seq))?;
        self.emit(Event::Committed(g, &txn))
    }

    /// Close the log and hand over the histories as a report, plus the
    /// driver for whatever it recorded on top. The report's read-path,
    /// shard-plane, activation and stage-histogram sections are empty —
    /// the machine has none of those.
    pub fn finish(mut self) -> Result<(SimReport, D), SimError> {
        if let Some(w) = self.wal.as_mut() {
            w.finalize()?;
            self.metrics.wal_fsyncs = w.fsyncs();
        }
        let parts = self.parts;
        let report = SimReport {
            merge_stats: parts.mps.iter().map(|m| m.mp.stats()).collect(),
            commit_stats: parts.mps.iter().map(|m| m.mp.commit_stats()).collect(),
            // Every routed update got a row in some group.
            routed: parts.integrator.routed(),
            cluster: self.cluster,
            warehouse: parts.warehouse,
            registry: parts.integrator.registry().clone(),
            partitioning: parts.integrator.partitioning().clone(),
            group_updates: parts.integrator.group_updates,
            metrics: self.metrics,
            guarantees: parts.guarantees,
            group_views: parts.group_views,
            commit_log: self.commit_log,
            pipeline: PipelineObs::new("steps"),
            activations: BTreeMap::new(),
            read_observations: Vec::new(),
            initial_fingerprints: BTreeMap::new(),
            shard_plane: None,
        };
        Ok((report, self.driver))
    }
}
