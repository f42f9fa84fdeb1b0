//! Deterministic event simulator of the Figure 1 architecture.
//!
//! The graph itself — every process (integrator, view managers, query
//! server, merge processes, warehouse committer) a state machine, every
//! arrow a FIFO channel — is [`crate::machine::Machine`]. This module is
//! its seeded scheduler: it repeatedly picks one enabled action — inject
//! the next workload transaction at the sources, deliver the head
//! message of one channel, or let a reader session read — so a single
//! `u64` seed fixes the entire interleaving. Per-channel FIFO is the
//! *only* ordering guarantee, exactly the paper's assumption ("messages
//! from the same process must arrive in the order sent"); everything
//! else is fair game, which is how the simulator manufactures
//! intertwined updates, late query answers, and out-of-order AL arrivals
//! that the painting algorithms must survive.
//!
//! Simulated time is the step counter: one delivered message (or one
//! injected transaction) per step. Everything measured in that unit, the
//! MVCC read path, the sharded twin plane, checkpoints and §1.2 dynamic
//! view installs are this driver's additions to the machine's
//! transitions (`SimDriver`).

#![deny(clippy::too_many_lines)]

use crate::integrator::GroupRouting;
use crate::machine::{
    assemble, shard_stores, ChanId, Choice, Driver, Event, Machine, Msg, SOURCE_CHECKPOINT_INTERVAL,
};
use crate::metrics::SimMetrics;
use crate::obs::PipelineObs;
use crate::registry::{ManagerKind, ViewEntry, ViewRegistry};
use crate::shard::{
    remap_observations, ReadFrontier, ShardPlane, ShardReport, ShardTopology, ShardWatermarks,
};
use crate::transitions::{checkpoint_record, commit, VmPart, WalSink};
use mvc_core::{
    CommitPolicy, CommitStats, ConsistencyLevel, MergeAlgorithm, MergeError, MergeStats,
    Partitioning, TxnSeq, UpdateId, ViewId,
};
use mvc_durability::{DurabilityConfig, WalError, WalWriter};
use mvc_readpath::{ReadObservation, ReadSession, VersionedCuts};
use mvc_relational::{Delta, EvalError, RelationName, Schema, ViewDef};
use mvc_source::{GlobalSeq, SourceCluster, SourceError, SourceId, SourceUpdate, WriteOp};
use mvc_viewmgr::VmError;
use mvc_warehouse::{StoreTxn, Warehouse, WarehouseError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed fixing the whole interleaving.
    pub seed: u64,
    /// Commit release policy (§4.3).
    pub commit_policy: CommitPolicy,
    /// Merge algorithm override; `None` selects per group from the
    /// weakest manager level (§6.3).
    pub algorithm: Option<MergeAlgorithm>,
    /// Distribute the merge per §6.1.
    pub partition: bool,
    /// Tuple-level irrelevance tests at the integrator (ref \[7\]).
    pub tuple_relevance: bool,
    /// Fault injection: buffer released transactions and commit each
    /// buffer of this depth in *reversed* order (reproduces the §4.3
    /// hazard). `None` = commit in arrival order.
    pub commit_reorder_depth: Option<usize>,
    /// Relative scheduler weight of injecting the next source transaction
    /// versus delivering one message (each nonempty channel has weight 1).
    /// Higher = sources outpace the pipeline = more intertwining.
    pub inject_weight: u32,
    /// §1.1 sequential strawman: the next transaction is injected only
    /// when the whole pipeline is quiescent.
    pub sequential: bool,
    /// Source rate control: at most this many updates may be "open"
    /// (injected but not yet fully covered by warehouse commits) at once.
    /// `None` = unbounded (flood). This is the load knob of the §7
    /// bottleneck study: a window of 1 approximates the sequential
    /// strawman, larger windows expose the merge process to more
    /// concurrent rows.
    pub max_open_updates: Option<usize>,
    /// Record full warehouse snapshots per commit (needed by the oracle).
    pub record_snapshots: bool,
    /// Concurrent reader sessions over the MVCC read path. Each session
    /// is one extra scheduler lottery ticket per step, so reader reads
    /// interleave arbitrarily with pipeline progress (and the explorer /
    /// fuzz stack covers those interleavings). Every observed cut is
    /// retained in `SimReport::read_observations` for certification.
    pub readers: usize,
    /// Write-ahead logging + crash injection (`None` = in-memory only).
    /// Durable runs reject §1.2 dynamic installs — the install protocol's
    /// pseudo-updates are not in the WAL vocabulary.
    pub durability: Option<DurabilityConfig>,
    /// Cap on the number of merge groups: the §6.1 partitioning is
    /// coarsened (groups folded together) down to at most this many.
    /// `None` keeps the natural connected-component partitioning.
    pub groups: Option<usize>,
    /// Warehouse shards. Each shard owns a subset of merge groups
    /// (round-robin) and runs a twin commit plane — its own store,
    /// commit log and versioned-cut stack — coordinated only through
    /// the cross-shard watermark registers. Readers switch to the
    /// frontier protocol (snapshot the register vector, read each shard
    /// at its entry). `1` = unsharded (the plane is absent from the
    /// report). Sharded runs are in-memory only and reject dynamic
    /// installs.
    pub shards: usize,
}

/// Safety cap on scheduler steps ([`SimError::StepLimit`] past it).
const MAX_STEPS: u64 = 50_000_000;

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            commit_policy: CommitPolicy::DependencyAware,
            algorithm: None,
            partition: false,
            tuple_relevance: true,
            commit_reorder_depth: None,
            inject_weight: 2,
            sequential: false,
            max_open_updates: None,
            record_snapshots: true,
            readers: 0,
            durability: None,
            groups: None,
            shards: 1,
        }
    }
}

/// One workload transaction.
#[derive(Debug, Clone)]
pub struct WorkloadTxn {
    pub source: SourceId,
    pub writes: Vec<WriteOp>,
    /// §6.2 multi-source global transaction.
    pub global: bool,
}

/// Simulation errors.
#[derive(Debug)]
pub enum SimError {
    Merge(MergeError),
    Vm(VmError),
    Source(SourceError),
    Warehouse(WarehouseError),
    Eval(EvalError),
    /// The drain phase failed to reach quiescence (component bug).
    NonQuiescent(String),
    /// Threaded runtime: the drain deadline passed with work still in
    /// flight. Carries the in-flight message counter and the backlog of
    /// every channel at the deadline so the stuck stage is identifiable
    /// from the error alone.
    DrainTimeout {
        in_flight: i64,
        queue_depths: Vec<(String, usize)>,
    },
    StepLimit(u64),
    /// Durability subsystem failure (WAL append/flush). The injected
    /// crash point of the fault harness also arrives here, as
    /// `Wal(WalError::CrashPoint)`.
    Wal(WalError),
    /// Configuration rejected in the requested mode.
    Unsupported(String),
    /// A scheduler stepped a choice that is not enabled: the workload
    /// (for an inject) or the named channel (for a delivery) is empty.
    NotEnabled(Choice),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Merge(e) => write!(f, "merge error: {e}"),
            SimError::Vm(e) => write!(f, "view manager error: {e}"),
            SimError::Source(e) => write!(f, "source error: {e}"),
            SimError::Warehouse(e) => write!(f, "warehouse error: {e}"),
            SimError::Eval(e) => write!(f, "evaluation error: {e}"),
            SimError::NonQuiescent(why) => write!(f, "drain did not quiesce: {why}"),
            SimError::DrainTimeout {
                in_flight,
                queue_depths,
            } => {
                write!(f, "drain timed out with {in_flight} message(s) in flight;")?;
                write!(f, " queue depths:")?;
                for (chan, depth) in queue_depths {
                    write!(f, " {chan}={depth}")?;
                }
                Ok(())
            }
            SimError::StepLimit(n) => write!(f, "step limit {n} exceeded"),
            SimError::Wal(e) => write!(f, "wal error: {e}"),
            SimError::Unsupported(why) => write!(f, "unsupported configuration: {why}"),
            SimError::NotEnabled(choice) => write!(f, "choice {choice} is not enabled"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<MergeError> for SimError {
    fn from(e: MergeError) -> Self {
        SimError::Merge(e)
    }
}
impl From<VmError> for SimError {
    fn from(e: VmError) -> Self {
        SimError::Vm(e)
    }
}
impl From<SourceError> for SimError {
    fn from(e: SourceError) -> Self {
        SimError::Source(e)
    }
}
impl From<WarehouseError> for SimError {
    fn from(e: WarehouseError) -> Self {
        SimError::Warehouse(e)
    }
}
impl From<EvalError> for SimError {
    fn from(e: EvalError) -> Self {
        SimError::Eval(e)
    }
}
impl From<WalError> for SimError {
    fn from(e: WalError) -> Self {
        SimError::Wal(e)
    }
}

/// Builder for a simulation.
///
/// ```
/// use mvc_whips::workload::{generate, install_relations, install_views};
/// use mvc_whips::{ManagerKind, Oracle, SimBuilder, SimConfig, ViewSuite, WorkloadSpec};
///
/// let spec = WorkloadSpec {
///     seed: 7,
///     relations: 3,
///     updates: 12,
///     key_domain: 6,
///     delete_percent: 25,
///     multi_percent: 0,
/// };
/// let w = generate(&spec);
/// let b = install_relations(SimBuilder::new(SimConfig::default()), spec.relations);
/// let (b, _views) = install_views(b, ViewSuite::OverlappingChain { count: 2 }, ManagerKind::Complete);
/// let report = b.workload(w.txns).run().unwrap();
/// assert!(report.metrics.commits > 0);
/// Oracle::new(&report).unwrap().assert_ok();
/// ```
pub struct SimBuilder {
    config: SimConfig,
    cluster: SourceCluster,
    registry: ViewRegistry,
    workload: Vec<WorkloadTxn>,
    /// Views installed mid-run: workload index → views.
    installs: BTreeMap<usize, Vec<ViewEntry>>,
}

impl SimBuilder {
    pub fn new(config: SimConfig) -> Self {
        SimBuilder {
            config,
            cluster: SourceCluster::new(SOURCE_CHECKPOINT_INTERVAL),
            registry: ViewRegistry::new(),
            workload: Vec::new(),
            installs: BTreeMap::new(),
        }
    }

    /// Create a base relation on a source.
    pub fn relation(
        mut self,
        source: SourceId,
        name: impl Into<RelationName>,
        schema: Schema,
    ) -> Self {
        self.cluster
            .create_relation(source, name, schema)
            .expect("relation setup");
        self
    }

    /// Register a view with its manager kind.
    pub fn view(mut self, id: ViewId, def: ViewDef, kind: ManagerKind) -> Self {
        self.registry.add(id, def, kind);
        self
    }

    pub fn catalog(&self) -> &mvc_relational::Catalog {
        self.cluster.catalog()
    }

    /// The view registry as configured so far. Crash recovery needs the
    /// same registry the crashed run was built with.
    pub fn registry(&self) -> &ViewRegistry {
        &self.registry
    }

    /// Append a single-source transaction to the workload.
    pub fn txn(mut self, source: SourceId, writes: Vec<WriteOp>) -> Self {
        self.workload.push(WorkloadTxn {
            source,
            writes,
            global: false,
        });
        self
    }

    /// Append a §6.2 global (multi-source) transaction.
    pub fn global_txn(mut self, coordinator: SourceId, writes: Vec<WriteOp>) -> Self {
        self.workload.push(WorkloadTxn {
            source: coordinator,
            writes,
            global: true,
        });
        self
    }

    pub fn workload(mut self, txns: Vec<WorkloadTxn>) -> Self {
        self.workload.extend(txns);
        self
    }

    /// Install a view on the fly (§1.2: "our architecture also makes it
    /// easy to add and delete views on the fly"): the view joins the
    /// system after `after_txn` workload transactions have been injected
    /// (at or past the end: after the last one).
    /// Installation is coordinated through the merge process — an install
    /// row relevant to every view gates the initial load behind all
    /// earlier updates, so MVC holds across the transition. Requires the
    /// single-merge deployment (`partition == false`).
    pub fn view_later(
        mut self,
        id: ViewId,
        def: ViewDef,
        kind: ManagerKind,
        after_txn: usize,
    ) -> Self {
        self.installs
            .entry(after_txn)
            .or_default()
            .push(ViewEntry { id, def, kind });
        self
    }

    /// Run the simulation to quiescence.
    pub fn run(self) -> Result<SimReport, SimError> {
        Sim::build(self)?.run()
    }

    /// Run under the configured durability settings; an injected crash
    /// point surfaces as [`DurableOutcome::Crashed`] rather than an error,
    /// carrying everything `recovery::recover_and_run` needs.
    pub fn run_durable(self) -> Result<DurableOutcome, SimError> {
        let mut sim = Sim::build(self)?;
        match sim.run_inner() {
            Ok(()) => Ok(DurableOutcome::Completed(Box::new(sim.into_report()?))),
            Err(SimError::Wal(WalError::CrashPoint)) => Ok(DurableOutcome::Crashed {
                injected: sim.m.metrics.injected as usize,
                cluster: sim.m.cluster,
            }),
            Err(e) => Err(e),
        }
    }
}

/// Outcome of [`SimBuilder::run_durable`].
pub enum DurableOutcome {
    /// The run completed; the WAL holds the full history.
    Completed(Box<SimReport>),
    /// The injected crash point fired mid-run. The warehouse-side state is
    /// gone — only the WAL file survives.
    Crashed {
        /// Source-side state at the crash (the sources are autonomous
        /// DBMSs with their own durability, so their state survives).
        cluster: SourceCluster,
        /// Workload transactions injected before the crash:
        /// `workload[injected..]` is the unfinished remainder.
        injected: usize,
    },
}

/// Result of a simulation run: full histories plus metrics, ready for the
/// consistency oracle and the experiment harnesses.
pub struct SimReport {
    pub cluster: SourceCluster,
    pub warehouse: Warehouse,
    pub registry: ViewRegistry,
    pub partitioning: Partitioning<RelationName>,
    /// Per merge group: local update id → global commit seq.
    pub group_updates: Vec<BTreeMap<UpdateId, GlobalSeq>>,
    pub metrics: SimMetrics,
    pub merge_stats: Vec<MergeStats>,
    pub commit_stats: Vec<CommitStats>,
    /// MVC level each merge group guarantees (engine × commit policy).
    pub guarantees: Vec<ConsistencyLevel>,
    /// Views of each merge group.
    pub group_views: Vec<BTreeSet<ViewId>>,
    /// Commit log aligned 1:1 with `warehouse.history()`: which merge
    /// group committed and which group-local rows the transaction covered.
    pub commit_log: Vec<CommitLogEntry>,
    /// Per-stage latency histograms + queue-depth gauges (virtual steps
    /// from the simulator, nanoseconds from the threaded runtime).
    pub pipeline: PipelineObs,
    /// Global seqs of updates the integrator routed to at least one group
    /// (the complement — dropped updates — are provably irrelevant to
    /// every view by the ref \[7\] test).
    pub routed: BTreeSet<GlobalSeq>,
    /// Dynamically-installed views (§1.2): view → (index of the commit
    /// that activated it, source seq of its initial load). Views absent
    /// here were registered statically (active from commit 0).
    pub activations: BTreeMap<ViewId, (usize, GlobalSeq)>,
    /// Every cut the reader workload observed (empty without readers),
    /// certified by `Oracle::check_reads`.
    pub read_observations: Vec<ReadObservation>,
    /// Pre-any-commit state-vector fingerprints — what a watermark-0
    /// observation must match (empty on a resumed run that recovered past
    /// commit 0, where no watermark-0 read is possible).
    pub initial_fingerprints: BTreeMap<ViewId, u64>,
    /// The sharded commit plane's report (`None` = unsharded run):
    /// per-shard commit logs/histories/observations plus the cross-shard
    /// reader frontiers, certified by `Oracle::check_sharded`.
    pub shard_plane: Option<ShardPlane>,
}

/// One entry of [`SimReport::commit_log`].
#[derive(Debug, Clone)]
pub struct CommitLogEntry {
    pub group: usize,
    pub seq: TxnSeq,
    pub rows: Vec<UpdateId>,
    pub views: BTreeSet<ViewId>,
}

/// Live state of the sharded commit plane (`None` when `shards == 1`).
/// The global warehouse stays the primary store — its history *is* the
/// observed global linearization — and every commit is twinned into the
/// owning shard's plane, which is what a real sharded deployment would
/// run (the global store here plays the role of the ticket-merged
/// reconstruction the threaded runtime computes after the fact).
struct ShardState {
    topology: ShardTopology,
    twins: Vec<ShardTwin>,
    /// `sessions[reader][shard]`: one session per (reader, shard) pair.
    sessions: Vec<Vec<ReadSession>>,
    /// The cross-shard watermark registers.
    watermarks: ShardWatermarks,
    /// Every frontier the readers snapshotted, in program order.
    frontiers: Vec<ReadFrontier>,
    /// Per reader: next frontier sequence number.
    reader_seq: Vec<u64>,
}

/// One shard's twin commit plane.
struct ShardTwin {
    /// Twin store (only the shard's own views registered).
    warehouse: Warehouse,
    /// The shard's view set, ascending (its readers' query set).
    views: Vec<ViewId>,
    commit_log: Vec<CommitLogEntry>,
    /// Versioned-cut stack (shard-local watermarks).
    cuts: VersionedCuts,
    /// Observations, in shard-local sessions/watermarks.
    observations: Vec<ReadObservation>,
    initial_fingerprints: BTreeMap<ViewId, u64>,
    /// Local watermark `w` (index `w - 1`) → global `commit_index`,
    /// recorded at commit time.
    local_to_global: Vec<u64>,
}

impl ShardState {
    /// Twin stores per shard, each with its own versioned-cut stack, plus
    /// one read session per (reader, shard) pair.
    fn new(
        registry: &ViewRegistry,
        partitioning: &Partitioning<RelationName>,
        topology: ShardTopology,
        readers: usize,
    ) -> Self {
        let twins: Vec<ShardTwin> = shard_stores(registry, partitioning, &topology, false)
            .into_iter()
            .map(|warehouse| {
                let views: Vec<ViewId> = warehouse.view_ids().collect();
                let cuts = VersionedCuts::new();
                cuts.seed(0, warehouse.read(&views));
                ShardTwin {
                    initial_fingerprints: warehouse.initial_fingerprints(),
                    warehouse,
                    views,
                    commit_log: Vec::new(),
                    cuts,
                    observations: Vec::new(),
                    local_to_global: Vec::new(),
                }
            })
            .collect();
        ShardState {
            sessions: (0..readers)
                .map(|_| twins.iter().map(|t| t.cuts.open_session()).collect())
                .collect(),
            watermarks: ShardWatermarks::new(twins.len()),
            twins,
            frontiers: Vec::new(),
            reader_seq: vec![0; readers],
            topology,
        }
    }

    /// Emit the per-shard planes, and *also* remap every shard
    /// observation into global sessions/watermarks (appended to
    /// `global_observations`) so the ordinary single-store read
    /// certification covers them against the global history (the remap
    /// is exact — `local_to_global` was recorded at commit time).
    fn into_plane(self, global_observations: &mut Vec<ReadObservation>) -> ShardPlane {
        let shards = self.twins.into_iter().enumerate().map(|(s, t)| {
            global_observations.extend(remap_observations(s, &t.observations, &t.local_to_global));
            ShardReport {
                commit_log: t.commit_log,
                history: t.warehouse.history().to_vec(),
                initial_fingerprints: t.initial_fingerprints,
                read_observations: t.observations,
                local_to_global: t.local_to_global,
                commits: t.warehouse.commit_count(),
            }
        });
        ShardPlane {
            shards: shards.collect(),
            assignment: self.topology.assignment().to_vec(),
            frontiers: self.frontiers,
        }
    }
}

/// Channel class for the queue-depth gauges (instances of one arrow kind
/// share a gauge).
fn class(chan: ChanId) -> &'static str {
    match chan {
        ChanId::SrcToInt => "src_to_int",
        ChanId::IntToVm(_) => "int_to_vm",
        ChanId::IntToMp(_) => "int_to_mp",
        ChanId::VmToMp(_) => "vm_to_mp",
        ChanId::VmToQs(_) => "vm_to_qs",
        ChanId::MpToWh(_) => "mp_to_wh",
        ChanId::WhToMp(_) => "wh_to_mp",
    }
}

/// What the simulator adds to the machine's transitions: virtual-time
/// (step-unit) bookkeeping, the MVCC read path and its shard twin, the
/// durable run's audit trail (paint and checkpoint records), and §1.2
/// view installation.
pub(crate) struct SimDriver {
    /// Per channel: the send step of every queued message, parallel to
    /// the machine's FIFO — drives the queue-wait histograms.
    stamps: BTreeMap<ChanId, VecDeque<u64>>,
    /// Views still to install, ascending by the number of workload
    /// transactions that must have been injected first.
    installs: VecDeque<(usize, ViewEntry)>,
    /// Install rows: update id → (installed view, initial-load cut seq).
    install_rows: BTreeMap<UpdateId, (ViewId, GlobalSeq)>,
    /// View activations: view → (commit index, initial-load cut seq).
    activations: BTreeMap<ViewId, (usize, GlobalSeq)>,
    /// Per-stage pipeline observability (virtual-step unit).
    obs: PipelineObs,
    /// Update arrival step at each VM, keyed (view, update) — drives the
    /// `vm_compute` stage (arrival → AL emission, including any query
    /// round-trip the manager needed).
    vm_pending: BTreeMap<(ViewId, UpdateId), u64>,
    /// AL arrival step at each merge process, keyed (group, view,
    /// `AL.last`) — drives the `merge_hold` stage.
    al_recv: BTreeMap<(usize, ViewId, UpdateId), u64>,
    inject_steps: BTreeMap<GlobalSeq, u64>,
    /// Per group: rows not yet covered by a commit → used for latency.
    uncovered: Vec<BTreeSet<UpdateId>>,
    /// Per group: release step per txn seq.
    release_steps: Vec<BTreeMap<TxnSeq, u64>>,
    /// Injected but not yet fully covered (None until routed; the count
    /// is the number of groups still holding uncovered rows).
    open_updates: BTreeMap<GlobalSeq, Option<usize>>,
    /// Commits since the last checkpoint record.
    commits_since_checkpoint: u64,
    /// Checkpoint cadence from the durability config (0 = never).
    checkpoint_every: u64,
    /// MVCC version store: every commit publishes its changed views here.
    cuts: VersionedCuts,
    /// Reader workload sessions (scheduler participants).
    reader_sessions: Vec<ReadSession>,
    /// View set the reader workload queries (fixed at build time).
    read_views: Vec<ViewId>,
    /// Every cut the readers observed, for certification.
    read_observations: Vec<ReadObservation>,
    /// Pre-any-commit state-vector fingerprints.
    initial_fingerprints: BTreeMap<ViewId, u64>,
    /// Sharded commit plane (`None` when `shards == 1`).
    shard_state: Option<ShardState>,
}

impl SimDriver {
    /// A driver for a machine about to start from `warehouse`: seeds the
    /// MVCC version store with the view contents at the warehouse's
    /// commit watermark and opens the reader sessions. Sessions observe
    /// cuts from there forward only, so the pre-any-commit fingerprints
    /// (which anchor watermark-0 cuts during certification) exist only
    /// when nothing has committed yet.
    fn new(groups: usize, readers: usize, warehouse: &Warehouse) -> Self {
        let base = warehouse.commit_count();
        let read_views: Vec<ViewId> = warehouse.view_ids().collect();
        let cuts = VersionedCuts::new();
        cuts.seed(base, warehouse.read(&read_views));
        SimDriver {
            stamps: BTreeMap::new(),
            installs: VecDeque::new(),
            install_rows: BTreeMap::new(),
            activations: BTreeMap::new(),
            obs: PipelineObs::new("steps"),
            vm_pending: BTreeMap::new(),
            al_recv: BTreeMap::new(),
            inject_steps: BTreeMap::new(),
            uncovered: vec![BTreeSet::new(); groups],
            release_steps: vec![BTreeMap::new(); groups],
            open_updates: BTreeMap::new(),
            commits_since_checkpoint: 0,
            checkpoint_every: 0,
            reader_sessions: (0..readers).map(|_| cuts.open_session()).collect(),
            cuts,
            read_views,
            read_observations: Vec::new(),
            initial_fingerprints: if base == 0 {
                warehouse.initial_fingerprints()
            } else {
                BTreeMap::new()
            },
            shard_state: None,
        }
    }
}

impl Driver for SimDriver {
    fn on(m: &mut Machine<Self>, event: Event<'_>) -> Result<(), SimError> {
        let step = m.metrics.steps;
        let d = &mut m.driver;
        match event {
            Event::Sent(chan, depth) => {
                d.stamps.entry(chan).or_default().push_back(step);
                d.obs.note_depth(class(chan), depth as u64);
            }
            Event::Delivering(chan) => m.note_delivery(chan),
            Event::Injected(seq) => {
                d.inject_steps.insert(seq, step);
                d.open_updates.insert(seq, None);
            }
            Event::Routed(seq, routings) => m.note_routing(seq, routings),
            Event::VmUpdate(v, id) => {
                d.vm_pending.insert((v, id), step);
            }
            Event::VmAction(v, first, last) => {
                // vm_compute: earliest covered update's arrival at the
                // VM → this AL's emission (batched ALs span a range).
                let covered: Vec<(ViewId, UpdateId)> = d
                    .vm_pending
                    .range((v, first)..=(v, last))
                    .map(|(&k, _)| k)
                    .collect();
                let earliest = covered.iter().filter_map(|k| d.vm_pending.remove(k)).min();
                if let Some(arrived) = earliest {
                    d.obs.vm_compute.record(step.saturating_sub(arrived));
                }
            }
            Event::RelInstalled(g, _) => m.sample_vut(g),
            Event::ActionInstalled(g, view, last) => {
                d.al_recv.insert((g, view, last), step);
                m.sample_vut(g);
            }
            Event::Released(g, t) => {
                for a in &t.actions {
                    if let Some(rcv) = d.al_recv.remove(&(g, a.view, a.last)) {
                        d.obs.merge_hold.record(step.saturating_sub(rcv));
                    }
                }
                d.release_steps[g].insert(t.seq, step);
            }
            Event::Committed(g, txn) => return m.note_commit(g, txn),
            Event::Install(entry) => return m.install_view(entry),
        }
        Ok(())
    }
}

/// The simulator's halves of the transitions (see [`SimDriver`]).
impl Machine<SimDriver> {
    /// The driver still has transactions or view installs to inject.
    fn more_to_inject(&self) -> bool {
        !self.workload.is_empty() || !self.driver.installs.is_empty()
    }

    fn note_delivery(&mut self, chan: ChanId) {
        // Emulated-parallel accounting: deliveries handled by a merge
        // group's plane (its views' VM compute, merge, commit, ack) are
        // charged to that group. Groups are independent (§6.1), so
        // `max(group_busy_steps)` is the plane's parallel makespan even
        // though this serial scheduler runs them one at a time.
        let busy_group = match chan {
            ChanId::IntToMp(g) | ChanId::MpToWh(g) | ChanId::WhToMp(g) => Some(g),
            ChanId::IntToVm(v) | ChanId::VmToMp(v) | ChanId::VmToQs(v) => {
                self.parts.integrator.partitioning().group_of_view(v)
            }
            ChanId::SrcToInt => None,
        };
        if let Some(b) = busy_group.and_then(|g| self.metrics.group_busy_steps.get_mut(g)) {
            *b += 1;
        }
        let sent = self
            .driver
            .stamps
            .get_mut(&chan)
            .and_then(VecDeque::pop_front)
            .expect("every queued message was stamped");
        let wait = self.metrics.steps.saturating_sub(sent);
        match chan {
            ChanId::SrcToInt => self.driver.obs.src_to_int_wait.record(wait),
            // Fan-out arrows from the integrator: routing latency in
            // virtual time is the queue wait until the recipient runs.
            ChanId::IntToVm(_) | ChanId::IntToMp(_) => self.driver.obs.int_routing.record(wait),
            _ => {}
        }
    }

    fn note_routing(&mut self, seq: GlobalSeq, routings: &[GroupRouting]) {
        let d = &mut self.driver;
        if routings.is_empty() {
            // irrelevant everywhere: closes immediately
            d.open_updates.remove(&seq);
        } else {
            d.open_updates.insert(seq, Some(routings.len()));
        }
        for r in routings {
            d.uncovered[r.group].insert(r.numbered.id);
        }
    }

    /// Sample the VUT after group `g`'s engine consumed a REL or an AL.
    fn sample_vut(&mut self, g: usize) {
        let rows = self.parts.mps[g].mp.live_rows() as u64;
        self.driver.obs.vut_occupancy.record(rows);
    }

    /// Read-path publication, shard twin, and step-unit metrics of one
    /// commit; then the checkpoint cadence.
    fn note_commit(&mut self, g: usize, txn: &StoreTxn) -> Result<(), SimError> {
        let seq = txn.seq;
        let step = self.metrics.steps;
        let watermark = self.parts.warehouse.commit_count();
        let changed: Vec<ViewId> = txn.views.iter().copied().collect();
        let draining = !self.more_to_inject();
        let d = &mut self.driver;
        // Publish the commit's new view versions to the MVCC read path
        // (Arc handles — the warehouse copies-on-write underneath them).
        d.cuts
            .publish(watermark, self.parts.warehouse.read(&changed));
        // Twin the commit into the owning shard's plane: local apply,
        // local cut publication, then — and only then — the watermark
        // register, so any register value a reader observes is already
        // resolvable in that shard's cut stack.
        if let Some(ss) = d.shard_state.as_mut() {
            let s = ss.topology.shard_of(g);
            let t = &mut ss.twins[s];
            // The twin plane keeps no log of its own.
            let twin_log = &mut None::<WalWriter>;
            let run = std::iter::once((g, txn));
            commit(&mut t.warehouse, &mut t.commit_log, run, twin_log)?;
            let local = t.warehouse.commit_count();
            t.cuts.publish(local, t.warehouse.read(&changed));
            t.local_to_global.push(watermark);
            ss.watermarks.publish(s, local);
        }
        for row in &txn.rows {
            if let Some(&(v, cut)) = d.install_rows.get(row) {
                d.activations
                    .entry(v)
                    .or_insert((self.commit_log.len() - 1, cut));
            }
        }
        // Freshness: how far the sources have moved past this txn's
        // frontier, measured in source commits. Sampled only while the
        // sources are still producing (steady state) — during the final
        // drain the gap shrinks to zero by construction and would skew
        // the measure.
        if !draining {
            let frontier = self.parts.integrator.group_updates[g].get(&txn.frontier);
            if let Some(&frontier_seq) = frontier {
                let staleness = self.cluster.latest_seq().0.saturating_sub(frontier_seq.0);
                self.metrics.staleness_updates.record(staleness);
            }
        }
        // Per-update latency: injection step → first covering commit step.
        for row in &txn.rows {
            if !d.uncovered[g].remove(row) {
                continue;
            }
            let Some(&seq_of_row) = self.parts.integrator.group_updates[g].get(row) else {
                continue;
            };
            if let Some(&inj) = d.inject_steps.get(&seq_of_row) {
                self.metrics
                    .update_latency_steps
                    .record(step.saturating_sub(inj));
            }
            // close the update once every routed group covered it
            if let Some(Some(remaining)) = d.open_updates.get_mut(&seq_of_row) {
                *remaining -= 1;
                if *remaining == 0 {
                    d.open_updates.remove(&seq_of_row);
                }
            }
        }
        if let Some(&rel_step) = d.release_steps[g].get(&seq) {
            d.obs.commit_apply.record(step.saturating_sub(rel_step));
        }
        // Group-activity span in virtual steps (the threaded runtime
        // records the same span in ns from its MP threads).
        d.obs.note_group_span(g, step);
        self.maybe_checkpoint()
    }

    /// Emit a checkpoint record every `checkpoint_every` commits. Written
    /// immediately after the triggering `TxnCommitted`, so every engine
    /// input that produced the checkpointed state precedes it in the log.
    ///
    /// The checkpoint is self-contained (routing history, watermarks,
    /// in-flight transactions, counters — see `CheckpointState`), which is
    /// what licenses the WAL to compact segments below its anchor. On
    /// this single-threaded runtime every logged record's transition has
    /// been applied by now, so all anchors sit at the checkpoint record's
    /// own index; and every released transaction still on an MP→WH queue
    /// (or in the chaos reorder buffer) or whose ack is still on WH→MP is
    /// exactly what its merge part retains.
    fn maybe_checkpoint(&mut self) -> Result<(), SimError> {
        let d = &mut self.driver;
        if !self.wal.attached() || d.checkpoint_every == 0 {
            return Ok(());
        }
        d.commits_since_checkpoint += 1;
        if d.commits_since_checkpoint < d.checkpoint_every {
            return Ok(());
        }
        d.commits_since_checkpoint = 0;
        let merges = self.parts.mps.iter().map(|m| m.snapshot(&self.wal));
        let ck = checkpoint_record(
            self.parts.integrator.snapshot(&self.wal),
            merges.collect(),
            &self.parts.warehouse,
            &self.commit_log,
        );
        Ok(self.wal.append(&ck)?)
    }

    /// §1.2 dynamic view installation, processed by the integrator at a
    /// well-defined cut of the update stream.
    fn install_view(&mut self, spec: &ViewEntry) -> Result<(), SimError> {
        let (g, c) = self
            .parts
            .integrator
            .install_view(spec.id, spec.def.clone(), spec.kind)
            .map_err(SimError::Unsupported)?;
        let cut_seq = self.parts.integrator.last_src;

        // New view manager (state loaded at the cut) and an empty
        // warehouse slot (the install AL fills it transactionally).
        self.cluster.index_join_columns(&spec.def.core);
        let mut vm = spec.kind.build(spec.id, spec.def.clone())?;
        vm.initialize(&self.cluster.as_of(cut_seq))?;
        let replay = spec.kind.needs_delivery_replay();
        self.parts
            .vms
            .insert(spec.id, VmPart::new(spec.id, vm, replay));
        self.parts.warehouse.register_view(
            spec.id,
            spec.def.name.clone(),
            mvc_relational::Relation::shared(spec.def.schema.clone()),
        )?;

        // Initial load at the cut (exact, via the MVCC log).
        let initial = mvc_relational::eval_view(&spec.def, &self.cluster.as_of(cut_seq))?;
        let initial_delta = Delta::inserts_from(&initial);

        // Grow the merge group.
        if g >= self.parts.group_views.len() {
            self.parts.group_views.resize_with(g + 1, BTreeSet::new);
        }
        let old_views: Vec<ViewId> = self.parts.group_views[g].iter().copied().collect();
        self.parts.group_views[g].insert(spec.id);

        // Coordinate the install through the merge process: the VUT gains
        // a column, then an install row relevant to EVERY view gates the
        // initial load behind all earlier updates (their action lists
        // precede the pseudo-ALs on each manager's FIFO).
        self.send(ChanId::IntToMp(g), Msg::AddView(spec.id))?;
        self.send(
            ChanId::IntToMp(g),
            Msg::Rel(c, self.parts.group_views[g].clone()),
        )?;
        let pseudo = mvc_viewmgr::NumberedUpdate {
            id: c,
            update: Arc::new(SourceUpdate {
                seq: cut_seq,
                source: mvc_source::SourceId(0),
                changes: vec![],
            }),
        };
        for v in old_views {
            self.send(ChanId::IntToVm(v), Msg::Update(pseudo.clone()))?;
        }
        // The new view's install AL carries the initial load. It rides
        // the SAME FIFO as AddView and REL_c so it cannot overtake them.
        self.send(
            ChanId::IntToMp(g),
            Msg::Action(mvc_core::ActionList::single(spec.id, c, initial_delta)),
        )?;
        self.driver.install_rows.insert(c, (spec.id, cut_seq));
        Ok(())
    }
}

/// The seeded-lottery scheduler over the Figure 1 machine.
pub(crate) struct Sim {
    config: SimConfig,
    rng: StdRng,
    m: Machine<SimDriver>,
}

impl Sim {
    fn build(b: SimBuilder) -> Result<Self, SimError> {
        let c = &b.config;
        let assembly = assemble(
            &b.registry,
            c.partition,
            c.groups,
            c.algorithm,
            c.commit_policy,
            c.tuple_relevance,
            c.record_snapshots,
        )?;
        let groups = assembly.mps.len();
        let mut driver = SimDriver::new(groups, c.readers, &assembly.warehouse);

        // Sharded commit plane. Sharded runs stay in-memory (per-shard
        // WAL streams live in the threaded runtime) and reject dynamic
        // installs (a twin created at build time would never learn the
        // new view).
        let topology = ShardTopology::new(groups, c.shards);
        if topology.shards() > 1 {
            if c.durability.is_some() {
                return Err(SimError::Unsupported(
                    "sharded sim runs are in-memory only".into(),
                ));
            }
            if !b.installs.is_empty() {
                return Err(SimError::Unsupported(
                    "dynamic view installs are not supported in sharded mode".into(),
                ));
            }
            driver.shard_state = Some(ShardState::new(
                &b.registry,
                assembly.integrator.partitioning(),
                topology,
                c.readers,
            ));
        }
        if c.durability.is_some() && !b.installs.is_empty() {
            return Err(SimError::Unsupported(
                "dynamic view installs are not supported in durable mode".into(),
            ));
        }
        driver.installs = b
            .installs
            .into_iter()
            .flat_map(|(at, specs)| specs.into_iter().map(move |spec| (at, spec)))
            .collect();

        let mut cluster = b.cluster;
        b.registry.index_sources(&mut cluster);
        let mut m = Machine::new(
            cluster,
            assembly,
            b.workload,
            c.commit_reorder_depth,
            driver,
        );
        m.metrics.group_busy_steps = vec![0; groups];
        if let Some(d) = &c.durability {
            m.attach_wal(d)?;
            m.driver.checkpoint_every = d.checkpoint_every;
            if d.checkpoint_every > 0 {
                m.parts.keep_checkpoint_state();
            }
            // Paint transitions join the log as an audit trail.
            for part in &mut m.parts.mps {
                part.mp.enable_paint_events();
            }
        }
        Ok(Sim {
            rng: StdRng::seed_from_u64(c.seed),
            m,
            config: b.config,
        })
    }

    pub(crate) fn run(mut self) -> Result<SimReport, SimError> {
        self.run_inner()?;
        self.into_report()
    }

    /// Nudge whoever is withholding work: a flush message to each of
    /// `lagging`, then every merge process and the chaos buffer directly.
    fn nudge(&mut self, lagging: Vec<ViewId>) -> Result<(), SimError> {
        for v in lagging {
            self.m.send(ChanId::IntToVm(v), Msg::Flush)?;
        }
        for g in 0..self.m.groups() {
            self.m.flush_merge(g)?;
        }
        self.m.flush_reorder_buffer()
    }

    fn run_inner(&mut self) -> Result<(), SimError> {
        // Main phase: interleave injection and delivery.
        loop {
            if self.m.metrics.steps >= MAX_STEPS {
                return Err(SimError::StepLimit(MAX_STEPS));
            }
            let nonempty = self.m.nonempty_channels();
            let open = self.m.driver.open_updates.len();
            let window_ok = self
                .config
                .max_open_updates
                .map(|w| open < w.max(1))
                .unwrap_or(true);
            let can_inject = self.m.more_to_inject()
                && window_ok
                && (!self.config.sequential || self.m.quiescent());
            if nonempty.is_empty() && !can_inject {
                if !self.m.more_to_inject() {
                    break;
                }
                // Sequential mode stalled with no messages in flight: a
                // batching component is withholding work. Nudge it so the
                // end-to-end chain finishes and injection can resume.
                debug_assert!(self.config.sequential);
                let lagging: Vec<ViewId> = self
                    .m
                    .parts
                    .vms
                    .iter()
                    .filter(|(_, v)| !v.vm.is_idle())
                    .map(|(&id, _)| id)
                    .collect();
                self.nudge(lagging)?;
                if self.m.nonempty_channels().is_empty() && !self.m.quiescent() {
                    return Err(SimError::NonQuiescent(
                        "sequential mode stalled with unfinishable work".into(),
                    ));
                }
                continue;
            }
            let inject_w = if can_inject {
                self.config.inject_weight.max(1) as usize
            } else {
                0
            };
            // Reader sessions are ordinary lottery participants (one
            // ticket each), slotted in *after* the termination check so
            // readers never keep an otherwise-finished run alive.
            let reader_w = self.m.driver.reader_sessions.len();
            let total = nonempty.len() + inject_w + reader_w;
            let pick = self.rng.gen_range(0..total);
            if pick < nonempty.len() {
                self.m.step(Choice::Deliver(nonempty[pick]))?;
            } else if pick < nonempty.len() + inject_w {
                self.inject()?;
            } else {
                self.m.metrics.steps += 1;
                self.reader_step(pick - nonempty.len() - inject_w);
            }
        }
        self.drain()
    }

    /// Drain phase: flush batching components until global quiescence.
    /// Every view manager receives at least one Flush even when idle —
    /// convergent managers run their final correction pass there.
    fn drain(&mut self) -> Result<(), SimError> {
        let mut flushed_all = false;
        for _round in 0..10_000 {
            // Deliver everything currently in flight.
            loop {
                if self.m.metrics.steps >= MAX_STEPS {
                    return Err(SimError::StepLimit(MAX_STEPS));
                }
                let nonempty = self.m.nonempty_channels();
                if nonempty.is_empty() {
                    break;
                }
                let pick = self.rng.gen_range(0..nonempty.len());
                self.m.step(Choice::Deliver(nonempty[pick]))?;
            }
            if self.m.quiescent() && flushed_all {
                break;
            }
            // Nudge whoever is holding back (everyone, the first time).
            let lagging: Vec<ViewId> = self
                .m
                .parts
                .vms
                .iter()
                .filter(|(_, v)| !flushed_all || !v.vm.is_idle())
                .map(|(&id, _)| id)
                .collect();
            flushed_all = true;
            self.nudge(lagging)?;
        }
        if !self.m.quiescent() {
            let stuck: Vec<String> = self
                .m
                .parts
                .vms
                .iter()
                .filter(|(_, v)| !v.vm.is_idle())
                .map(|(id, _)| id.to_string())
                .chain(
                    self.m
                        .parts
                        .mps
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| !m.mp.is_quiescent())
                        .map(|(g, m)| format!("MP{g} ({} rows live)", m.mp.live_rows())),
                )
                .collect();
            return Err(SimError::NonQuiescent(stuck.join(", ")));
        }
        Ok(())
    }

    fn into_report(self) -> Result<SimReport, SimError> {
        let (mut report, d) = self.m.finish()?;
        report.pipeline = d.obs;
        report.activations = d.activations;
        report.read_observations = d.read_observations;
        report.initial_fingerprints = d.initial_fingerprints;
        report.shard_plane = d
            .shard_state
            .map(|ss| ss.into_plane(&mut report.read_observations));
        Ok(report)
    }

    /// Execute the next driver action: a dynamic view installation that
    /// has come due, else the next workload transaction at the sources.
    fn inject(&mut self) -> Result<(), SimError> {
        let injected = self.m.metrics.injected as usize;
        let installs = &mut self.m.driver.installs;
        let due = installs.front().is_some_and(|(at, _)| *at <= injected);
        if due || self.m.workload.is_empty() {
            let (_, spec) = installs.pop_front().expect("inject checked");
            self.m.metrics.steps += 1;
            return self
                .m
                .send(ChanId::SrcToInt, Msg::InstallView(Box::new(spec)));
        }
        self.m.step(Choice::Inject)
    }

    /// One scheduled read by reader session `i`: alternate randomly
    /// between reading the newest cut and a snapshot read at a random
    /// retained watermark (which the session clamps up to its last-seen
    /// cut — exercising the monotonicity path). The observation is kept
    /// for certification; staleness/chain/GC gauges feed the histograms.
    fn reader_step(&mut self, i: usize) {
        let d = &mut self.m.driver;
        if d.shard_state.is_some() {
            return d.sharded_reader_step(i);
        }
        let head = d.cuts.head();
        let s = &mut d.reader_sessions[i];
        let target = if self.rng.gen_bool(0.5) {
            head
        } else {
            let low = s.last_seen();
            low + self.rng.gen_range(0..=head.saturating_sub(low))
        };
        let out = s
            .read_at(target, &d.read_views)
            .expect("target ≤ head and every chain was seeded at build");
        d.obs.note_read(out.staleness, out.chain_len, out.gc_lag);
        d.read_observations.push(out.observation);
    }

    /// Reconstruct a mid-flight simulation from recovered state (see
    /// `recovery::recover_and_run`): engines, warehouse, view managers
    /// and bookkeeping come from the WAL scan; every message that was in
    /// flight (or lost with the log tail) is re-enqueued. The resumed run
    /// does not re-log (single-recovery model) and, like every durable
    /// run, is unsharded.
    pub(crate) fn resume(
        mut config: SimConfig,
        cluster: SourceCluster,
        mut state: crate::recovery::RecoveredState,
        remaining: Vec<WorkloadTxn>,
    ) -> Result<Self, SimError> {
        config.durability = None;
        let groups = state.assembly.mps.len();
        let channels = state.in_flight(&cluster);
        let mut driver = SimDriver::new(groups, config.readers, &state.assembly.warehouse);
        // Re-enqueued messages wait from step 0.
        driver.stamps = channels
            .iter()
            .map(|(&c, q)| (c, q.iter().map(|_| 0).collect()))
            .collect();

        // Rows not yet covered by a commit, and the open-update window.
        for u in state.cluster_tail(&cluster) {
            driver.open_updates.insert(u.seq, None);
        }
        for (g, list) in state.route_lists.iter().enumerate() {
            driver.uncovered[g].extend(list.iter().map(|(id, _, _)| *id));
        }
        for e in &state.commit_log {
            for row in &e.rows {
                driver.uncovered[e.group].remove(row);
            }
        }
        let mut still_open: BTreeMap<GlobalSeq, usize> = BTreeMap::new();
        for (g, ids) in driver.uncovered.iter().enumerate() {
            for id in ids {
                let seq = state.assembly.integrator.group_updates[g]
                    .get(id)
                    .copied()
                    .expect("uncovered row was routed");
                *still_open.entry(seq).or_insert(0) += 1;
            }
        }
        for (seq, n) in still_open {
            driver.open_updates.insert(seq, Some(n));
        }

        let mut cluster = cluster;
        state
            .assembly
            .integrator
            .registry()
            .index_sources(&mut cluster);
        let mut m = Machine::new(
            cluster,
            state.assembly,
            remaining,
            config.commit_reorder_depth,
            driver,
        );
        m.channels = channels;
        m.commit_log = state.commit_log;
        Ok(Sim {
            rng: StdRng::seed_from_u64(config.seed),
            m,
            config,
        })
    }
}

impl SimDriver {
    /// One cross-shard read by reader `i` under the watermark protocol:
    /// snapshot the register vector *first* (the frontier), then read
    /// each shard at its entry. Every register value was published after
    /// its cut, so each per-shard read resolves; register monotonicity
    /// makes one reader's successive frontiers pointwise monotone —
    /// `check_sharded` certifies both.
    fn sharded_reader_step(&mut self, i: usize) {
        let ss = self.shard_state.as_mut().expect("sharded mode");
        let frontier = ss.watermarks.snapshot();
        let seq = ss.reader_seq[i];
        ss.reader_seq[i] += 1;
        ss.frontiers.push(ReadFrontier {
            reader: i,
            seq,
            watermarks: frontier.clone(),
        });
        for (s, &target) in frontier.iter().enumerate() {
            let out = ss.sessions[i][s]
                .read_at(target, &ss.twins[s].views)
                .expect("register values are published after their cuts");
            self.obs.note_read(out.staleness, out.chain_len, out.gc_lag);
            ss.twins[s].observations.push(out.observation);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_relational::tuple;
    use mvc_relational::ViewDef;

    /// The paper's running schema: R(a,b) on src0, S(b,c) on src1,
    /// T(c,d) on src2, Q(q,r) on src3.
    fn builder(config: SimConfig) -> SimBuilder {
        SimBuilder::new(config)
            .relation(SourceId(0), "R", Schema::ints(&["a", "b"]))
            .relation(SourceId(1), "S", Schema::ints(&["b", "c"]))
            .relation(SourceId(2), "T", Schema::ints(&["c", "d"]))
            .relation(SourceId(3), "Q", Schema::ints(&["q", "r"]))
    }

    fn v1(b: &SimBuilder) -> ViewDef {
        ViewDef::builder("V1")
            .from("R")
            .from("S")
            .join_on("R.b", "S.b")
            .project(["R.a", "R.b", "S.c"])
            .build(b.catalog())
            .unwrap()
    }

    fn v2(b: &SimBuilder) -> ViewDef {
        ViewDef::builder("V2")
            .from("S")
            .from("T")
            .join_on("S.c", "T.c")
            .project(["S.b", "S.c", "T.d"])
            .build(b.catalog())
            .unwrap()
    }

    fn v3(b: &SimBuilder) -> ViewDef {
        ViewDef::builder("V3").from("Q").build(b.catalog()).unwrap()
    }

    /// Example 1's workload: R\[1,2\] and T\[3,4\] pre-exist, then S\[2,3\]
    /// arrives, affecting both views.
    fn example1_workload(b: SimBuilder) -> SimBuilder {
        b.txn(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .txn(SourceId(2), vec![WriteOp::insert("T", tuple![3, 4])])
            .txn(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
    }

    #[test]
    fn example1_spa_is_mvc_complete_across_seeds() {
        for seed in 0..25 {
            let config = SimConfig {
                seed,
                ..SimConfig::default()
            };
            let mut b = builder(config);
            let (d1, d2) = (v1(&b), v2(&b));
            b = b.view(ViewId(1), d1, ManagerKind::Complete).view(
                ViewId(2),
                d2,
                ManagerKind::Complete,
            );
            let report = example1_workload(b).run().unwrap();
            assert_eq!(report.guarantees[0], ConsistencyLevel::Complete);
            // Final contents correct.
            assert!(report
                .warehouse
                .view(ViewId(1))
                .unwrap()
                .contains(&tuple![1, 2, 3]));
            assert!(report
                .warehouse
                .view(ViewId(2))
                .unwrap()
                .contains(&tuple![2, 3, 4]));
            crate::oracle::Oracle::new(&report).unwrap().assert_ok();
        }
    }

    #[test]
    fn strobe_pa_is_mvc_strong_across_seeds() {
        for seed in 0..25 {
            let config = SimConfig {
                seed,
                inject_weight: 6, // flood the pipeline → intertwining
                ..SimConfig::default()
            };
            let mut b = builder(config);
            let (d1, d2) = (v1(&b), v2(&b));
            b = b
                .view(ViewId(1), d1, ManagerKind::Strobe)
                .view(ViewId(2), d2, ManagerKind::Strobe);
            b = example1_workload(b)
                .txn(SourceId(1), vec![WriteOp::insert("S", tuple![2, 9])])
                .txn(SourceId(0), vec![WriteOp::insert("R", tuple![7, 2])])
                .txn(SourceId(1), vec![WriteOp::delete("S", tuple![2, 3])]);
            let report = b.run().unwrap();
            assert_eq!(report.guarantees[0], ConsistencyLevel::Strong);
            let oracle = crate::oracle::Oracle::new(&report).unwrap();
            oracle.assert_ok();
        }
    }

    /// MVCC reader workload inside the deterministic sim: reader
    /// sessions interleave with the pipeline under the scheduler
    /// lottery, every observed cut certifies against the committed
    /// state-vector history, and the reader histograms fill in.
    #[test]
    fn sim_reader_workload_certified_across_seeds() {
        for seed in 0..15 {
            let config = SimConfig {
                seed,
                readers: 3,
                inject_weight: 4,
                ..SimConfig::default()
            };
            let mut b = builder(config);
            let (d1, d2) = (v1(&b), v2(&b));
            b = b
                .view(ViewId(1), d1, ManagerKind::Strobe)
                .view(ViewId(2), d2, ManagerKind::Strobe);
            b = example1_workload(b)
                .txn(SourceId(1), vec![WriteOp::insert("S", tuple![2, 9])])
                .txn(SourceId(0), vec![WriteOp::insert("R", tuple![7, 2])])
                .txn(SourceId(1), vec![WriteOp::delete("S", tuple![2, 3])]);
            let report = b.run().unwrap();
            assert!(
                !report.read_observations.is_empty(),
                "seed {seed}: readers never ran"
            );
            let oracle = crate::oracle::Oracle::new(&report).unwrap();
            oracle.assert_ok(); // includes check_reads
            let cert = oracle.check_reads().unwrap();
            assert_eq!(cert.observations, report.read_observations.len());
            assert!(cert.sessions >= 1 && cert.sessions <= 3);
            assert_eq!(
                report.pipeline.read_staleness.count(),
                report.read_observations.len() as u64
            );
        }
    }

    /// The sim's reader workload is part of the deterministic lottery:
    /// same seed → byte-identical observations, different seed →
    /// (almost surely) a different interleaving.
    #[test]
    fn sim_reader_workload_is_deterministic() {
        let run = |seed: u64| {
            let config = SimConfig {
                seed,
                readers: 2,
                ..SimConfig::default()
            };
            let mut b = builder(config);
            let (d1, d2) = (v1(&b), v2(&b));
            b = b.view(ViewId(1), d1, ManagerKind::Complete).view(
                ViewId(2),
                d2,
                ManagerKind::Complete,
            );
            let report = example1_workload(b).run().unwrap();
            report
                .read_observations
                .iter()
                .map(|o| (o.session, o.seq, o.cut.watermark))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn mixed_managers_weakest_level_holds() {
        for seed in 0..10 {
            let config = SimConfig {
                seed,
                ..SimConfig::default()
            };
            let mut b = builder(config);
            let (d1, d2, d3) = (v1(&b), v2(&b), v3(&b));
            b = b
                .view(ViewId(1), d1, ManagerKind::Complete)
                .view(ViewId(2), d2, ManagerKind::Strobe)
                .view(ViewId(3), d3, ManagerKind::Periodic { period: 2 });
            b = example1_workload(b)
                .txn(SourceId(3), vec![WriteOp::insert("Q", tuple![5, 5])])
                .txn(SourceId(3), vec![WriteOp::insert("Q", tuple![6, 6])]);
            let report = b.run().unwrap();
            assert_eq!(
                report.guarantees[0],
                ConsistencyLevel::Strong,
                "complete+strong+periodic → PA → strong"
            );
            crate::oracle::Oracle::new(&report).unwrap().assert_ok();
        }
    }

    #[test]
    fn convergent_managers_converge() {
        for seed in 0..10 {
            let config = SimConfig {
                seed,
                inject_weight: 8,
                ..SimConfig::default()
            };
            let mut b = builder(config);
            let (d1, d2) = (v1(&b), v2(&b));
            b = b
                .view(
                    ViewId(1),
                    d1,
                    ManagerKind::Convergent {
                        correction_every: 3,
                    },
                )
                .view(
                    ViewId(2),
                    d2,
                    ManagerKind::Convergent {
                        correction_every: 3,
                    },
                );
            b = example1_workload(b).txn(SourceId(0), vec![WriteOp::insert("R", tuple![9, 2])]);
            let report = b.run().unwrap();
            assert_eq!(report.guarantees[0], ConsistencyLevel::Convergent);
            crate::oracle::Oracle::new(&report).unwrap().assert_ok();
        }
    }

    #[test]
    fn partitioned_merge_groups_each_hold() {
        for seed in 0..10 {
            let config = SimConfig {
                seed,
                partition: true,
                ..SimConfig::default()
            };
            let mut b = builder(config);
            let (d1, d2, d3) = (v1(&b), v2(&b), v3(&b));
            b = b
                .view(ViewId(1), d1, ManagerKind::Complete)
                .view(ViewId(2), d2, ManagerKind::Complete)
                .view(ViewId(3), d3, ManagerKind::Complete);
            b = example1_workload(b).txn(SourceId(3), vec![WriteOp::insert("Q", tuple![5, 5])]);
            let report = b.run().unwrap();
            assert_eq!(report.group_views.len(), 2, "{{V1,V2}} | {{V3}}");
            crate::oracle::Oracle::new(&report).unwrap().assert_ok();
        }
    }

    #[test]
    fn sequential_strawman_also_consistent_but_serial() {
        let config = SimConfig {
            seed: 1,
            sequential: true,
            ..SimConfig::default()
        };
        let mut b = builder(config);
        let (d1, d2) = (v1(&b), v2(&b));
        b = b
            .view(ViewId(1), d1, ManagerKind::Complete)
            .view(ViewId(2), d2, ManagerKind::Complete);
        let report = example1_workload(b).run().unwrap();
        crate::oracle::Oracle::new(&report).unwrap().assert_ok();
        // Serial processing: the VUT never holds more than one row.
        assert!(report.merge_stats[0].max_live_rows <= 1);
    }

    #[test]
    fn commit_reordering_fault_detected_by_oracle() {
        // §4.3 hazard: scrambled commits break per-view ordering. With
        // reorder depth 2 and dependent transactions the oracle must flag
        // a completeness/strong-consistency violation for at least one
        // seed (not every interleaving triggers the hazard).
        let mut violated = false;
        for seed in 0..30 {
            let config = SimConfig {
                seed,
                commit_reorder_depth: Some(2),
                // The hazard requires abdicating commit-order control
                // (§4.3): Immediate releases dependent txns concurrently
                // and the chaos committer scrambles them.
                commit_policy: CommitPolicy::Immediate,
                ..SimConfig::default()
            };
            let mut b = builder(config);
            let d3 = v3(&b);
            b = b.view(ViewId(3), d3, ManagerKind::Complete);
            // insert/delete pairs on the SAME tuple: genuinely conflicting
            // updates whose reversal is observable (commuting inserts of
            // distinct tuples could be legally reordered).
            for i in 0..3i64 {
                b = b
                    .txn(SourceId(3), vec![WriteOp::insert("Q", tuple![i, i])])
                    .txn(SourceId(3), vec![WriteOp::delete("Q", tuple![i, i])]);
            }
            let report = b.run().unwrap();
            let oracle = crate::oracle::Oracle::new(&report).unwrap();
            let results = oracle.check_report();
            if results.iter().any(|(_, _, v)| !v.is_satisfied()) {
                violated = true;
                break;
            }
        }
        assert!(violated, "reordered commits never violated consistency");
    }

    #[test]
    fn global_transactions_update_views_atomically() {
        // §6.2: one transaction inserts into R and Q; V1-over-R… use
        // copy views over R and Q so both must reflect the txn together.
        for seed in 0..10 {
            let config = SimConfig {
                seed,
                ..SimConfig::default()
            };
            let mut b = builder(config);
            let dr = ViewDef::builder("VR").from("R").build(b.catalog()).unwrap();
            let dq = ViewDef::builder("VQ").from("Q").build(b.catalog()).unwrap();
            b = b.view(ViewId(1), dr, ManagerKind::Complete).view(
                ViewId(2),
                dq,
                ManagerKind::Complete,
            );
            b = b.global_txn(
                SourceId(0),
                vec![
                    WriteOp::insert("R", tuple![1, 1]),
                    WriteOp::insert("Q", tuple![2, 2]),
                ],
            );
            b = b.txn(SourceId(0), vec![WriteOp::insert("R", tuple![3, 3])]);
            let report = b.run().unwrap();
            crate::oracle::Oracle::new(&report).unwrap().assert_ok();
            // Every committed snapshot must show the global txn's two
            // inserts together or not at all.
            for rec in report.warehouse.history() {
                let snap = rec.snapshot.as_ref().unwrap();
                let has_r = snap[&ViewId(1)].contains(&tuple![1, 1]);
                let has_q = snap[&ViewId(2)].contains(&tuple![2, 2]);
                assert_eq!(has_r, has_q, "§6.2 atomicity violated at {:?}", rec.seq);
            }
        }
    }

    /// Sharded sim workload: {V1,V2} and {V3} partition into two merge
    /// groups, dealt onto two shards. Q traffic keeps both shards busy.
    fn sharded_builder(config: SimConfig) -> SimBuilder {
        let mut b = builder(config);
        let (d1, d2, d3) = (v1(&b), v2(&b), v3(&b));
        b = b
            .view(ViewId(1), d1, ManagerKind::Complete)
            .view(ViewId(2), d2, ManagerKind::Complete)
            .view(ViewId(3), d3, ManagerKind::Complete);
        example1_workload(b)
            .txn(SourceId(3), vec![WriteOp::insert("Q", tuple![5, 5])])
            .txn(SourceId(1), vec![WriteOp::insert("S", tuple![2, 9])])
            .txn(SourceId(3), vec![WriteOp::insert("Q", tuple![6, 6])])
            .txn(SourceId(3), vec![WriteOp::delete("Q", tuple![5, 5])])
    }

    /// Sharded runs: the plane materializes, every commit lands on its
    /// assigned shard, the twin stores track the global state vector,
    /// cross-shard reads follow the frontier protocol, and the whole
    /// thing certifies — `assert_ok` covers the per-group MVC checks,
    /// the remapped global read certification, AND `check_sharded`.
    #[test]
    fn sim_sharded_run_certified_across_seeds() {
        for seed in 0..15 {
            let config = SimConfig {
                seed,
                partition: true,
                shards: 2,
                readers: 2,
                inject_weight: 4,
                ..SimConfig::default()
            };
            let report = sharded_builder(config).run().unwrap();
            let plane = report.shard_plane.as_ref().expect("sharded run");
            assert_eq!(plane.shards.len(), 2);
            assert_eq!(plane.assignment, vec![0, 1], "{{V1,V2}} | {{V3}}");
            // Both shards committed, and together they cover the run.
            assert!(plane.shards.iter().all(|s| s.commits > 0), "seed {seed}");
            assert_eq!(
                plane.shards.iter().map(|s| s.commits).sum::<u64>(),
                report.warehouse.commit_count()
            );
            assert!(!plane.frontiers.is_empty(), "seed {seed}: readers idle");
            // Sharded observations were remapped into the global list.
            let shard_obs: usize = plane.shards.iter().map(|s| s.read_observations.len()).sum();
            assert_eq!(report.read_observations.len(), shard_obs);
            crate::oracle::Oracle::new(&report).unwrap().assert_ok();
        }
    }

    /// One seed fixes the sharded interleaving end to end: commit
    /// routing, local→global maps, frontiers, and observations.
    #[test]
    fn sim_sharded_run_is_deterministic() {
        let run = |seed: u64| {
            let config = SimConfig {
                seed,
                partition: true,
                shards: 2,
                readers: 2,
                ..SimConfig::default()
            };
            let report = sharded_builder(config).run().unwrap();
            let plane = report.shard_plane.unwrap();
            let commits: Vec<Vec<(usize, TxnSeq)>> = plane
                .shards
                .iter()
                .map(|s| s.commit_log.iter().map(|e| (e.group, e.seq)).collect())
                .collect();
            let maps: Vec<Vec<u64>> = plane
                .shards
                .iter()
                .map(|s| s.local_to_global.clone())
                .collect();
            let frontiers: Vec<(usize, u64, Vec<u64>)> = plane
                .frontiers
                .iter()
                .map(|f| (f.reader, f.seq, f.watermarks.clone()))
                .collect();
            let obs: Vec<Vec<(u64, u64, u64)>> = plane
                .shards
                .iter()
                .map(|s| {
                    s.read_observations
                        .iter()
                        .map(|o| (o.session, o.seq, o.cut.watermark))
                        .collect()
                })
                .collect();
            (commits, maps, frontiers, obs)
        };
        assert_eq!(run(11), run(11));
    }

    /// `groups` coarsens the §6.1 partitioning; `shards` clamps to the
    /// group count so no shard is dead weight.
    #[test]
    fn sim_group_cap_and_shard_clamp() {
        let config = SimConfig {
            seed: 3,
            partition: true,
            groups: Some(1),
            shards: 4,
            readers: 1,
            ..SimConfig::default()
        };
        let report = sharded_builder(config).run().unwrap();
        // Two natural groups folded into one → a single shard despite
        // shards=4 → the plane is degenerate (single shard) but honest.
        assert_eq!(report.partitioning.group_count(), 1);
        assert!(report.shard_plane.is_none(), "1 shard = unsharded plane");
        crate::oracle::Oracle::new(&report).unwrap().assert_ok();

        let config = SimConfig {
            seed: 3,
            partition: true,
            shards: 4,
            readers: 1,
            ..SimConfig::default()
        };
        let report = sharded_builder(config).run().unwrap();
        let plane = report.shard_plane.as_ref().expect("2 groups, 2 shards");
        assert_eq!(plane.shards.len(), 2, "clamped to the group count");
        crate::oracle::Oracle::new(&report).unwrap().assert_ok();
    }

    /// Every combination the sim refuses is refused with the typed
    /// `Unsupported` error. Sharded mode is in-memory only (a durable
    /// config would silently lose the per-shard WAL streams) and has no
    /// dynamic installs; neither has durable mode; and a §1.2 install
    /// needs the single-merge deployment — that one is refused by the
    /// integrator when the install reaches it, the rest at build time.
    #[test]
    fn sim_refuses_unsupported_combinations() {
        let dir = std::env::temp_dir().join(format!("mvc-sim-refusals-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // (what, partition, shards, durable, view_later)
        let cases = [
            ("sharded + durable", true, 2, true, false),
            ("durable + view_later", false, 1, true, true),
            ("sharded + view_later", true, 2, false, true),
            ("partitioned + view_later", true, 1, false, true),
        ];
        for (what, partition, shards, durable, install) in cases {
            let config = SimConfig {
                partition,
                shards,
                durability: durable.then(|| DurabilityConfig::new(dir.join("w.wal"))),
                ..SimConfig::default()
            };
            let mut b = sharded_builder(config);
            if install {
                let late = ViewDef::builder("V4").from("Q").build(b.catalog()).unwrap();
                b = b.view_later(ViewId(4), late, ManagerKind::Complete, 1);
            }
            match b.run() {
                Err(SimError::Unsupported(_)) => {}
                other => panic!("{what}: expected Unsupported, got {:?}", other.map(|_| ())),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
