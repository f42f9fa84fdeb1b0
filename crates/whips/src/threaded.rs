//! Threaded runtime: the Figure 1 architecture with one OS thread per
//! process and crossbeam FIFO channels as the arrows.
//!
//! This runtime exists for wall-clock measurements (the §7 bottleneck and
//! scaling studies): the deterministic simulator measures in steps, this
//! one in nanoseconds. Both produce a [`SimReport`], so the consistency
//! oracle validates threaded runs exactly like simulated ones.
//!
//! Ordering notes:
//! * updates and query answers destined for a view manager travel through
//!   the integrator thread and share that VM's input channel, preserving
//!   the per-source FIFO guarantee Strobe requires (see `sim.rs`);
//! * transaction commits and query answering serialize on the cluster
//!   lock, so an answer computed at state `s` is reported after every
//!   update ≤ `s` entered the integrator queue.
//!
//! Quiescence uses a global in-flight message counter: each send
//! increments it, each fully processed message decrements it *after* its
//! outputs were sent, so counter == 0 means the pipeline is empty.

use crate::machine::{assemble, shard_stores, Assembly, SOURCE_CHECKPOINT_INTERVAL};
use crate::metrics::SimMetrics;
use crate::obs::PipelineObs;
use crate::registry::{ManagerKind, ViewRegistry};
use crate::shard::{
    remap_observations, shard_class, ReadFrontier, ShardPlane, ShardReport, ShardTopology,
    ShardWatermarks,
};
use crate::sim::{CommitLogEntry, SimError, SimReport};
use mvc_core::lock::AuditedMutex;
use mvc_core::{CommitPolicy, MergeAlgorithm, MergeSnapshot, TxnSeq, UpdateId, ViewId};
use mvc_durability::{
    CheckpointState, CommitRecord, DurabilityConfig, FlushTicket, RoutedUpdate, WalRecord,
    WalWriter,
};
use mvc_relational::{Delta, RelationName, Schema, ViewDef};
use mvc_source::{GlobalSeq, SourceCluster, SourceId};
use mvc_viewmgr::{
    answer_query, ActionListDelta, QueryAnswer, QueryRequest, QueryToken, VmEvent, VmOutput,
};
use mvc_warehouse::{merge_shards, ShardInput, StoreTxn, Warehouse};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Threaded-runtime configuration.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    pub commit_policy: CommitPolicy,
    pub algorithm: Option<MergeAlgorithm>,
    pub partition: bool,
    pub tuple_relevance: bool,
    /// Artificial per-query service delay (widens intertwining windows).
    pub query_delay: Duration,
    /// Artificial per-commit latency at the warehouse.
    pub commit_delay: Duration,
    /// Pause between workload transactions (0 = flood).
    pub pacing: Duration,
    /// Batch size ceiling for the src→int channel: the driver accumulates
    /// committed updates and seals them into one `Vec`-payload message
    /// when the batch reaches this many items (1 = per-update sends, the
    /// pre-batching behaviour). Sequential mode always behaves as 1.
    pub batch_max: usize,
    /// Age ceiling for a buffered batch: a push that finds the oldest
    /// buffered update at least this old seals immediately. Checked at
    /// push points (driver) and at the query server's pre-answer flush —
    /// there is no timer thread.
    pub batch_deadline: Duration,
    pub record_snapshots: bool,
    /// Abort if quiescence is not reached within this budget.
    pub drain_timeout: Duration,
    /// §1.1 sequential strawman: wait for full quiescence between
    /// transactions.
    pub sequential: bool,
    /// Spawn a concurrent reader sampling these views (the §1.1
    /// customer-inquiry workload); every sample is a consistent
    /// multi-view read taken under the warehouse lock while commits flow.
    pub reader_views: Vec<ViewId>,
    /// Pause between reader samples.
    pub reader_interval: Duration,
    /// Closed-loop MVCC reader workload: this many reader threads hammer
    /// multi-view snapshot reads through `mvc_readpath` sessions during
    /// maintenance — never touching the warehouse lock — and every
    /// observed cut is retained for `Oracle::check_reads` certification.
    pub readers: usize,
    /// Think time between each MVCC reader's queries.
    pub reader_think_time: Duration,
    /// Pause between queue-depth samples. Senders record depths only at
    /// send time, so without the sampler the gauges never see idle-time
    /// decay; `ZERO` disables the sampler thread.
    pub depth_sample_interval: Duration,
    /// Write-ahead logging + crash injection. With `checkpoint_every > 0`
    /// the committer thread coordinates a checkpoint round every N
    /// commits (unsharded, zero `commit_delay` runs): each merge process
    /// and the integrator reply with a state snapshot plus a WAL anchor
    /// taken at their own point in the log, the coordinator classifies
    /// in-flight transactions against the commit log and appends a
    /// self-contained [`CheckpointState`] — so recovery restores the
    /// newest checkpoint and replays only each component's tail. With
    /// `fsync_deadline` set, committers park on a shared [`FlushTicket`]
    /// and one leader fsyncs for the whole window before any of them
    /// acks (group commit). WAL errors never stop the pipeline here —
    /// use `KillMode::Drop` faults, which model a machine that keeps
    /// computing while nothing more reaches the disk.
    pub durability: Option<DurabilityConfig>,
    /// Thread-level fault injection, for tests of the shutdown paths.
    pub fault: Option<ThreadFault>,
    /// Cap on the merge-group count: the §6.1 partitioning is coarsened
    /// (groups folded together) down to at most this many. `None` keeps
    /// the natural connected-component partitioning.
    pub groups: Option<usize>,
    /// Warehouse shard count (clamped to `[1, groups]`). At 1 the
    /// runtime is the classic single-store pipeline. Above 1, each shard
    /// owns a disjoint subset of merge groups and runs its own commit
    /// scheduler thread over its own store, commit log, versioned-cut
    /// stack and (when durable) WAL stream; a shared atomic ticket
    /// fixes one observed linearization that [`merge_shards`] replays
    /// into the global report after the joins. Sharded runs skip the
    /// read-path leg of the hb audit (`on_publish`/`on_read`/`on_gc`
    /// key by *global* watermark, and per-shard local watermarks
    /// collide in that keyspace); read certification instead comes from
    /// `Oracle::check_sharded` (per-shard) plus `check_reads` over the
    /// remapped observations.
    pub shards: usize,
}

/// Deliberate thread-lifecycle faults. The runtime must survive every
/// one of these with all threads joined and a typed error reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadFault {
    /// Panic the first MVCC reader thread after it completes this many
    /// reads (exercises the panic leg of the reader-fleet join path).
    ReaderPanic { after_reads: u64 },
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            commit_policy: CommitPolicy::DependencyAware,
            algorithm: None,
            partition: false,
            tuple_relevance: true,
            query_delay: Duration::ZERO,
            commit_delay: Duration::ZERO,
            pacing: Duration::ZERO,
            batch_max: 32,
            batch_deadline: Duration::from_micros(100),
            record_snapshots: false,
            drain_timeout: Duration::from_secs(30),
            sequential: false,
            reader_views: Vec::new(),
            reader_interval: Duration::from_micros(200),
            readers: 0,
            reader_think_time: Duration::from_micros(50),
            depth_sample_interval: Duration::from_micros(500),
            durability: None,
            fault: None,
            groups: None,
            shards: 1,
        }
    }
}

/// Wall-clock results beyond the shared [`SimReport`].
#[derive(Debug, Clone)]
pub struct WallClock {
    pub elapsed: Duration,
    /// Source transactions per second end-to-end.
    pub updates_per_sec: f64,
    /// Samples taken by the concurrent reader (when configured): each is
    /// one consistent multi-view read.
    pub reader_samples: Vec<std::collections::BTreeMap<ViewId, Arc<mvc_relational::Relation>>>,
    /// In-flight message counter at the end of the drain (0 on a clean
    /// run — nonzero would mean quiescence detection is broken).
    pub in_flight_at_end: i64,
    /// Per-channel backlog at the end of the drain: the same diagnostics
    /// a `DrainTimeout` error carries, available on success too.
    pub queue_depths_at_end: Vec<(String, usize)>,
    /// Happens-before violations found by the vector-clock audit
    /// (`hb-audit` feature): commit-order inversions and unsynchronized
    /// paint transitions. Always empty when the feature is off. The
    /// commit check enforces dominance per (group, view) — §4.3
    /// dependence — so the `DependencyAware`/`Immediate` policies, which
    /// legally reorder *independent* (disjoint-view) transactions, audit
    /// clean too: any entry here is a real ordering bug under every
    /// policy.
    pub hb_violations: Vec<mvc_core::HbViolation>,
    /// Lock-order cycles found by the lockdep graph (`lock-audit`
    /// feature), restricted to this runtime's lock namespaces. A cycle is
    /// a *potential* deadlock — two acquisition chains that, interleaved
    /// unluckily, would block forever — so any entry here is a bug even
    /// when the run itself completed. Always empty when the feature is
    /// off.
    pub lock_cycles: Vec<mvc_core::LockCycle>,
}

/// Vector-clock happens-before auditing (`hb-audit` feature). Each
/// thread owns a [`hb_rt::Clock`]; every stamped send carries a
/// [`hb_rt::Stamp`] snapshot and every recv joins it, so a message edge
/// becomes a happens-before edge. Commit/paint checking lives in
/// `mvc_core::hb` (shared with future runtimes); this module is only
/// the wiring. With the feature off every type is zero-sized and every
/// call a no-op — message layouts and call sites are identical either
/// way, which keeps the two builds from drifting apart.
#[cfg(feature = "hb-audit")]
mod hb_rt {
    use mvc_core::hb::{HbState, HbViolation, VectorClock};
    use mvc_core::lock::AuditedMutex;
    use mvc_core::snapshot::PaintEvent;
    use mvc_core::{TxnSeq, ViewId};
    use mvc_readpath::GcReceipt;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// Clock snapshot attached to a message.
    pub(super) type Stamp = VectorClock;

    /// A thread-owned vector clock; `pid` must be unique per thread.
    pub(super) struct Clock {
        pid: u32,
        vc: VectorClock,
    }

    impl Clock {
        pub(super) fn new(pid: u32) -> Self {
            Clock {
                pid,
                vc: VectorClock::new(),
            }
        }
    }

    /// Shared checker handle. The state lock participates in the
    /// lock-order audit itself: `on_commit` runs under the warehouse
    /// lock, so `whips.hb_state` must sit below `whips.warehouse` in the
    /// declared order.
    #[derive(Clone)]
    pub(super) struct HbAudit {
        state: Arc<AuditedMutex<HbState>>,
    }

    impl HbAudit {
        pub(super) fn new() -> Self {
            HbAudit {
                state: Arc::new(AuditedMutex::new("whips.hb_state", HbState::new())),
            }
        }

        /// Local event + stamp for an outgoing message.
        pub(super) fn stamp(&self, clock: &mut Clock) -> Stamp {
            clock.vc.tick(clock.pid);
            clock.vc.clone()
        }

        /// Local event + merge an incoming message's stamp.
        pub(super) fn recv(&self, clock: &mut Clock, stamp: &Stamp) {
            clock.vc.tick(clock.pid);
            clock.vc.join(stamp);
        }

        /// Check a warehouse commit; the returned clock rides the ack.
        /// Serialized by the checker's own lock (the caller already holds
        /// the warehouse lock, so commit order and check order agree).
        /// Dominance is enforced per (group, view) — §4.3 dependence —
        /// so concurrent commit policies that legally reorder
        /// independent same-group transactions audit clean.
        pub(super) fn on_commit(
            &self,
            group: usize,
            seq: TxnSeq,
            views: &BTreeSet<ViewId>,
            stamp: &Stamp,
        ) -> Stamp {
            self.state
                .lock()
                .on_commit(group, seq, views.iter().copied(), stamp)
        }

        /// Check paint transitions drained from a merge process against
        /// the MP thread's clock.
        pub(super) fn on_paints(&self, group: usize, events: &[PaintEvent], clock: &Clock) {
            if events.is_empty() {
                return;
            }
            let mut st = self.state.lock();
            for e in events {
                st.on_paint(group, e.view, e.update, &clock.vc);
            }
        }

        /// Record a cut publication at `watermark`; the returned clone of
        /// the committer's ack clock stamps the published cut, making
        /// every later certified read at this watermark happen-after the
        /// commit that produced it.
        pub(super) fn on_publish(&self, watermark: u64, ack: &Stamp) -> Option<Arc<VectorClock>> {
            self.state.lock().on_publish(watermark, ack);
            Some(Arc::new(ack.clone()))
        }

        /// Tick a reader's clock and snapshot it: the stamp pins the
        /// reader's session in the version store, licensing any GC that
        /// prunes watermarks the reader is provably past.
        pub(super) fn reader_stamp(&self, clock: &mut Clock) -> Option<Arc<VectorClock>> {
            clock.vc.tick(clock.pid);
            Some(Arc::new(clock.vc.clone()))
        }

        /// Certified read: join the cut's publish stamp into the reader's
        /// clock (the mutex hand-off is the physical edge; this records
        /// it), then check the read happens-after the publication.
        /// Returns the reader's post-join clock for `on_gc`.
        pub(super) fn on_read(
            &self,
            session: u64,
            watermark: u64,
            publish_stamp: &Option<VectorClock>,
            clock: &mut Clock,
        ) -> Stamp {
            clock.vc.tick(clock.pid);
            if let Some(ps) = publish_stamp {
                clock.vc.join(ps);
            }
            self.state.lock().on_read(session, watermark, &clock.vc);
            clock.vc.clone()
        }

        /// Check a GC floor advance: the store's license (join of every
        /// live pin and departed-session stamp) plus the advancing
        /// thread's own clock must dominate every read of every pruned
        /// watermark — i.e. all such reads happen-before the reclamation.
        pub(super) fn on_gc(&self, gc: &Option<GcReceipt>, clock: &Stamp) {
            if let Some(r) = gc {
                let mut license = r.license.clone().unwrap_or_else(VectorClock::new);
                license.join(clock);
                self.state.lock().on_gc_below(r.floor, &license);
            }
        }

        pub(super) fn take_violations(&self) -> Vec<HbViolation> {
            self.state.lock().take_violations()
        }
    }
}

/// No-op twin of the audit wiring: zero-sized stamps, inlined-away calls.
#[cfg(not(feature = "hb-audit"))]
mod hb_rt {
    use mvc_core::hb::VectorClock;
    use mvc_core::snapshot::PaintEvent;
    use mvc_core::{HbViolation, TxnSeq};
    use mvc_readpath::GcReceipt;
    use std::sync::Arc;

    /// Zero-sized stand-in (a struct, not `()`, so stamped sends don't
    /// trip clippy's `unit_arg` when the feature is off).
    #[derive(Clone, Copy)]
    pub(super) struct Stamp;

    pub(super) struct Clock;

    impl Clock {
        #[inline]
        pub(super) fn new(_pid: u32) -> Self {
            Clock
        }
    }

    #[derive(Clone)]
    pub(super) struct HbAudit;

    impl HbAudit {
        #[inline]
        pub(super) fn new() -> Self {
            HbAudit
        }
        #[inline]
        pub(super) fn stamp(&self, _clock: &mut Clock) -> Stamp {
            Stamp
        }
        #[inline]
        pub(super) fn recv(&self, _clock: &mut Clock, _stamp: &Stamp) {}
        #[inline]
        pub(super) fn on_commit(
            &self,
            _group: usize,
            _seq: TxnSeq,
            _views: &std::collections::BTreeSet<mvc_core::ViewId>,
            _stamp: &Stamp,
        ) -> Stamp {
            Stamp
        }
        #[inline]
        pub(super) fn on_paints(&self, _group: usize, _events: &[PaintEvent], _clock: &Clock) {}
        #[inline]
        pub(super) fn on_publish(&self, _watermark: u64, _ack: &Stamp) -> Option<Arc<VectorClock>> {
            None
        }
        #[inline]
        pub(super) fn reader_stamp(&self, _clock: &mut Clock) -> Option<Arc<VectorClock>> {
            None
        }
        #[inline]
        pub(super) fn on_read(
            &self,
            _session: u64,
            _watermark: u64,
            _publish_stamp: &Option<VectorClock>,
            _clock: &mut Clock,
        ) -> Stamp {
            Stamp
        }
        #[inline]
        pub(super) fn on_gc(&self, _gc: &Option<GcReceipt>, _clock: &Stamp) {}
        #[inline]
        pub(super) fn take_violations(&self) -> Vec<HbViolation> {
            Vec::new()
        }
    }
}

use hb_rt::{Clock as HbClock, HbAudit, Stamp};

/// One driver-batched update in flight to the integrator: shared
/// payload, push time (src→int wait latency + deadline age), and the
/// driver's per-update clock stamp.
type SrcItem = (Arc<mvc_source::SourceUpdate>, Instant, Stamp);

enum VmMsg {
    /// A batch of relevant updates sealed by the integrator. One channel
    /// wakeup and one stamp per batch; per-item send instants keep the
    /// routing-latency histogram per-update.
    Updates(Vec<(mvc_viewmgr::NumberedUpdate, Instant)>, Stamp),
    Answer(QueryToken, QueryAnswer, Stamp),
    Flush,
    Stop,
}

enum MpMsg {
    /// A batch of `REL_i` sets sealed by the integrator (same batching
    /// contract as [`VmMsg::Updates`]); ids stay in allocation order.
    Rels(Vec<(UpdateId, BTreeSet<ViewId>, Instant)>, Stamp),
    /// One action list per message. Deliberately *not* batched per VM
    /// wakeup: A/B runs showed no commit-rate gain from batching here,
    /// and a multi-list MP wakeup holds the merge loop while
    /// concurrently-routed `Rels` queue behind it.
    Action(ActionListDelta, Stamp),
    Committed(TxnSeq, Stamp),
    /// Checkpoint round (see the coordinator in the committer thread):
    /// reply with this group's merge snapshot, retained transactions and
    /// WAL anchor, taken at this point in the group's own FIFO.
    Checkpoint(crossbeam::channel::Sender<MpCkSnapshot>),
    Flush,
    Stop,
}

/// A merge process's half of a threaded checkpoint round. The anchor is
/// the WAL's next absolute record index read while handling the
/// [`MpMsg::Checkpoint`] message: every record this MP logged before the
/// snapshot has a smaller index and is reflected in `merge`; everything
/// at or above it must be replayed into the restored engine.
struct MpCkSnapshot {
    merge: MergeSnapshot<Delta>,
    /// Released transactions not yet acked back to this MP — the
    /// coordinator classifies them against the commit log into
    /// released-but-uncommitted vs committed-but-unacked.
    retained: Vec<StoreTxn>,
    installed_rel: UpdateId,
    installed_al: Vec<(ViewId, UpdateId)>,
    anchor: u64,
}

/// The integrator's half of a threaded checkpoint round: routing history
/// from genesis, allocation counters, and the `SourceUpdate` replay
/// anchor (same contract as [`MpCkSnapshot::anchor`]).
struct IntCkSnapshot {
    route_lists: Vec<RoutedUpdate>,
    next_id: Vec<UpdateId>,
    received: u64,
    dropped: u64,
    last_logged_src: GlobalSeq,
    anchor: u64,
}

enum IntMsg {
    /// A driver-sealed batch of committed source updates, FIFO within and
    /// across batches (sealed and sent under the batcher lock).
    Updates(Vec<SrcItem>),
    AnswerFor(ViewId, QueryToken, QueryAnswer, Stamp),
    /// Checkpoint round: reply with the routing history and counters.
    Checkpoint(crossbeam::channel::Sender<IntCkSnapshot>),
    Stop,
}

enum QsMsg {
    Query(ViewId, QueryToken, Box<QueryRequest>, Stamp),
    Stop,
}

enum WhMsg {
    Txn(usize, StoreTxn, Instant, Stamp),
    Stop,
}

/// What one MVCC reader thread hands back at join time. Unsharded
/// readers fill `observations` (certified directly against the global
/// history); sharded readers fill the per-shard vectors plus one
/// [`ReadFrontier`] per iteration for `Oracle::check_sharded`.
struct ReaderYield {
    observations: Vec<mvc_readpath::ReadObservation>,
    shard_observations: Vec<Vec<mvc_readpath::ReadObservation>>,
    frontiers: Vec<ReadFrontier>,
}

/// Best-effort text of a worker thread's panic payload, so a panicking
/// thread surfaces as a typed error instead of a silent leak.
fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Tracks in-flight messages for quiescence detection.
#[derive(Clone)]
struct Flight(Arc<AtomicI64>);

impl Flight {
    fn new() -> Self {
        Flight(Arc::new(AtomicI64::new(0)))
    }
    fn up(&self) {
        // SeqCst: increments must be globally ordered before the send
        // they cover, or `zero()` could observe an empty pipeline while a
        // message is still in flight.
        self.0.fetch_add(1, Ordering::SeqCst);
    }
    fn down(&self) {
        // SeqCst: the decrement happens only after the message's outputs
        // were sent (and counted), keeping the counter conservative.
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
    /// One decrement per update consumed from a sealed batch (the driver
    /// counted each update up individually at push time).
    fn down_n(&self, n: i64) {
        if n != 0 {
            // SeqCst: same contract as `down`.
            self.0.fetch_sub(n, Ordering::SeqCst);
        }
    }
    fn zero(&self) -> bool {
        // SeqCst: quiescence reads must not be reordered ahead of the
        // up/down traffic they summarize.
        self.0.load(Ordering::SeqCst) == 0
    }
    fn count(&self) -> i64 {
        // SeqCst: diagnostic snapshot, kept at the same order as zero().
        self.0.load(Ordering::SeqCst)
    }
}

/// Accumulates committed source updates into `Vec`-payload batches for
/// the src→int channel, amortizing channel wakeups under flood load.
///
/// Ordering contract: pushes happen under the cluster lock (commit order
/// = push order) and seals send under the batcher lock (seal order =
/// channel order), so the integrator still consumes the cluster's commit
/// stream FIFO. The query server flushes before reporting an answer
/// computed at state `s`, which keeps the invariant that every update
/// ≤ `s` reaches the integrator queue ahead of the answer.
struct SrcBatcher {
    buf: AuditedMutex<Vec<SrcItem>>,
    /// Seal when the batch reaches this many items.
    max: usize,
    /// Seal when the oldest buffered item is at least this old (checked
    /// at push — the driver's end-of-workload flush bounds the tail).
    deadline: Duration,
    int_tx: crossbeam::channel::Sender<IntMsg>,
}

impl SrcBatcher {
    fn new(max: usize, deadline: Duration, int_tx: crossbeam::channel::Sender<IntMsg>) -> Self {
        SrcBatcher {
            buf: AuditedMutex::new("whips.src_batcher", Vec::new()),
            max: max.max(1),
            deadline,
            int_tx,
        }
    }

    /// Buffer one committed update; seals and sends if the batch is full
    /// or stale. The caller has already counted the update in `Flight`.
    fn push(&self, update: Arc<mvc_source::SourceUpdate>, stamp: Stamp) {
        let mut buf = self.buf.lock();
        buf.push((update, Instant::now(), stamp));
        let stale = buf[0].1.elapsed() >= self.deadline;
        if buf.len() >= self.max || stale {
            let batch = std::mem::take(&mut *buf);
            // Send under the lock: seal order is channel order.
            let _ = self.int_tx.send(IntMsg::Updates(batch));
        }
    }

    /// Seal and send whatever is buffered (no-op when empty).
    fn flush(&self) {
        let mut buf = self.buf.lock();
        if !buf.is_empty() {
            let batch = std::mem::take(&mut *buf);
            let _ = self.int_tx.send(IntMsg::Updates(batch));
        }
    }
}

/// Builder mirroring [`crate::sim::SimBuilder`] for the threaded runtime.
pub struct ThreadedBuilder {
    config: ThreadedConfig,
    cluster: SourceCluster,
    registry: ViewRegistry,
    workload: Vec<crate::sim::WorkloadTxn>,
}

impl ThreadedBuilder {
    pub fn new(config: ThreadedConfig) -> Self {
        ThreadedBuilder {
            config,
            cluster: SourceCluster::new(SOURCE_CHECKPOINT_INTERVAL),
            registry: ViewRegistry::new(),
            workload: Vec::new(),
        }
    }

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

    pub fn view(mut self, id: ViewId, def: ViewDef, kind: ManagerKind) -> Self {
        self.registry.add(id, def, kind);
        self
    }

    pub fn catalog(&self) -> &mvc_relational::Catalog {
        self.cluster.catalog()
    }

    /// The installed view registry — recovery needs the same one to
    /// rebuild managers from a WAL this runtime wrote.
    pub fn registry(&self) -> &ViewRegistry {
        &self.registry
    }

    pub fn workload(mut self, txns: Vec<crate::sim::WorkloadTxn>) -> Self {
        self.workload.extend(txns);
        self
    }

    /// Run to quiescence; returns the report plus wall-clock stats.
    pub fn run(self) -> Result<(SimReport, WallClock), SimError> {
        run_threaded(self)
    }
}

#[allow(clippy::too_many_lines)]
fn run_threaded(b: ThreadedBuilder) -> Result<(SimReport, WallClock), SimError> {
    // Take the builder apart instead of cloning pieces out of it: the
    // config and registry are borrowed by many closures below, the
    // workload is consumed by the driver.
    let ThreadedBuilder {
        config,
        cluster: src_cluster,
        registry: reg,
        workload,
    } = b;
    // Every fallible step of deployment set-up (view-manager
    // construction) happens here, BEFORE any worker exists: a `?` taken
    // after the spawn loops start would leak every already-spawned thread
    // (nothing would ever send them Stop). All-or-nothing construction
    // keeps the unconditional shutdown below the only teardown path.
    let Assembly {
        mut integrator,
        group_views,
        mps,
        guarantees,
        vms,
        warehouse,
    } = assemble(
        &reg,
        config.partition,
        config.groups,
        config.algorithm,
        config.commit_policy,
        config.tuple_relevance,
        config.record_snapshots,
    )?;
    let partitioning = integrator.partitioning().clone();
    let groups = mps.len();
    // §6.1 scaled out: shards own disjoint subsets of merge groups (and
    // therefore disjoint view sets), each with its own commit plane.
    let topology = ShardTopology::new(groups, config.shards);
    let shards = topology.shards();
    let sharded = shards > 1;

    // Shared state.
    let flight = Flight::new();
    // Happens-before auditor (no-op unless `hb-audit`). Thread pids:
    // driver 0, integrator 1, VM 10+view, MP 1000+group; the query
    // server and commit workers pass stamps through without a clock of
    // their own (they are stateless relays for ordering purposes).
    let audit = HbAudit::new();
    let cluster = Arc::new(AuditedMutex::new("whips.cluster", src_cluster));
    // One store per shard; shard 0 owns every view when unsharded.
    // Sharded stores never record snapshots: the post-run ticket merge
    // reconstructs the global history with full state vectors and the
    // snapshot column deliberately empty.
    let shard_whs = shard_stores(
        &reg,
        &partitioning,
        &topology,
        config.record_snapshots && !sharded,
    );
    let shard_views: Vec<Vec<ViewId>> = shard_whs.iter().map(|w| w.view_ids().collect()).collect();
    // MVCC read path: per-shard pre-commit fingerprints and a version
    // store per shard, seeded at watermark 0 with that shard's views.
    // The global fingerprint vector (their disjoint union) comes from
    // the assembled all-views store, which this runtime uses for
    // nothing else. Committers publish every commit's changed views
    // under the same shard lock that serialized it.
    let shard_initials: Vec<BTreeMap<ViewId, u64>> = shard_whs
        .iter()
        .map(Warehouse::initial_fingerprints)
        .collect();
    let initial_fingerprints = warehouse.initial_fingerprints();
    let shard_cuts: Vec<mvc_readpath::VersionedCuts> = (0..shards)
        .map(|s| {
            let cuts = mvc_readpath::VersionedCuts::new();
            cuts.seed(0, shard_whs[s].read(&shard_views[s]));
            cuts
        })
        .collect();
    // Lock classes: the classic names when unsharded (byte-identical
    // runtime), `shard{i}.*` per shard otherwise — both literals sit on
    // their construction line for the static lock lint.
    let stores: Vec<Arc<AuditedMutex<Warehouse>>> = shard_whs
        .into_iter()
        .enumerate()
        .map(|(s, w)| {
            if sharded {
                Arc::new(AuditedMutex::new(shard_class(s, "shard{i}.warehouse"), w))
            } else {
                Arc::new(AuditedMutex::new("whips.warehouse", w))
            }
        })
        .collect();
    let shard_logs: Vec<Arc<AuditedMutex<Vec<CommitLogEntry>>>> = (0..shards)
        .map(|s| {
            if sharded {
                Arc::new(AuditedMutex::new(
                    shard_class(s, "shard{i}.commit_log"),
                    Vec::new(),
                ))
            } else {
                Arc::new(AuditedMutex::new("whips.commit_log", Vec::new()))
            }
        })
        .collect();
    // Cross-shard read-watermark registers plus the global ticket
    // counter every sharded committer draws from under its shard lock.
    let watermarks = Arc::new(ShardWatermarks::new(shards));
    let ticket_counter = Arc::new(AtomicU64::new(0));

    // Write-ahead log, shared by every logging thread. Unlike the
    // simulator, append errors are deliberately dropped (`let _`): a WAL
    // crash point must never stop the in-memory pipeline, only the log —
    // every `KillMode` degenerates to `Drop` here, modelling a machine
    // whose disk died while the process kept computing. Recovery then
    // replays the pre-crash prefix. No checkpoints either: merge state
    // lives inside the MP threads, so recovery replays from the start.
    // Sharded runs split the log into one stream per shard (path suffix
    // `.shard{i}`); the integrator duplicates every `SourceUpdate` into
    // all streams, so each shard's log is self-contained for its groups.
    let mut wals: Vec<Arc<AuditedMutex<WalWriter>>> = Vec::new();
    if let Some(d) = &config.durability {
        if sharded {
            for s in 0..shards {
                let mut ds = d.clone();
                let mut name = ds.wal_path.clone().into_os_string();
                name.push(format!(".shard{s}"));
                ds.wal_path = name.into();
                wals.push(Arc::new(AuditedMutex::new(
                    shard_class(s, "shard{i}.wal"),
                    WalWriter::create(&ds)?,
                )));
            }
        } else {
            wals.push(Arc::new(AuditedMutex::new(
                "whips.wal",
                WalWriter::create(d)?,
            )));
        }
        // Strobe/Convergent recovery replays logged deliveries from
        // genesis, so checkpoint-anchored compaction must never unlink
        // the log's prefix while such a view is registered.
        if reg.iter().any(|e| e.kind.needs_delivery_replay()) {
            for w in &wals {
                w.lock().set_compaction(false);
            }
        }
    }
    // Group commit: one flush ticket per WAL stream; committers enroll
    // after appending and one leader fsyncs for everyone in the window.
    let flush_window = config.durability.as_ref().and_then(|d| d.fsync_deadline);
    let flush_tickets: Vec<Arc<FlushTicket>> =
        (0..shards).map(|_| Arc::new(FlushTicket::new())).collect();
    // Threaded checkpoint rounds: coordinated by the (single) committer
    // on the unsharded, zero-commit-delay path only — the round's
    // request/reply legs assume one committer classifying a stable
    // commit log.
    let checkpoint_every = if sharded || !config.commit_delay.is_zero() {
        0
    } else {
        config.durability.as_ref().map_or(0, |d| d.checkpoint_every)
    };

    // Per-thread observability: every thread records latencies into its
    // own PipelineObs (no lock on the hot path) and pushes it here on
    // exit; the driver merges the shards into SimReport.pipeline.
    let obs_parts: Arc<AuditedMutex<Vec<PipelineObs>>> =
        Arc::new(AuditedMutex::new("whips.obs_parts", Vec::new()));

    // Channels.
    let (int_tx, int_rx) = crossbeam::channel::unbounded::<IntMsg>();
    let (qs_tx, qs_rx) = crossbeam::channel::unbounded::<QsMsg>();
    // Driver-side batcher for the src→int channel. Sequential mode needs
    // per-update sends: the driver waits for quiescence between
    // transactions, and a buffered update would never drain.
    let batcher = Arc::new(SrcBatcher::new(
        if config.sequential {
            1
        } else {
            config.batch_max
        },
        config.batch_deadline,
        int_tx.clone(),
    ));
    // One release channel per committer: MP `g` routes its releases to
    // `wh_txs[topology.shard_of(g)]` (always index 0 unsharded).
    let mut wh_txs: Vec<crossbeam::channel::Sender<WhMsg>> = Vec::with_capacity(shards);
    let mut wh_rxs = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = crossbeam::channel::unbounded::<WhMsg>();
        wh_txs.push(tx);
        wh_rxs.push(rx);
    }
    let mut vm_txs: BTreeMap<ViewId, crossbeam::channel::Sender<VmMsg>> = BTreeMap::new();
    let mut mp_txs: Vec<crossbeam::channel::Sender<MpMsg>> = Vec::new();

    let mut handles = Vec::new();
    // Shared epoch for the per-group activity spans recorded by the MP
    // threads: overlapping spans across groups demonstrate concurrency.
    let epoch = Instant::now();

    // --- View manager threads ---
    let vm_idle: Arc<AuditedMutex<BTreeMap<ViewId, Arc<AtomicBool>>>> =
        Arc::new(AuditedMutex::new("whips.vm_idle", BTreeMap::new()));
    // (MP channels created below; VMs need them — create MP channels first.)
    let mut mp_rxs = Vec::new();
    for _ in 0..groups {
        let (tx, rx) = crossbeam::channel::unbounded::<MpMsg>();
        mp_txs.push(tx);
        mp_rxs.push(rx);
    }

    for (id, mut vm) in vms {
        let (tx, rx) = crossbeam::channel::unbounded::<VmMsg>();
        vm_txs.insert(id, tx);
        let idle = Arc::new(AtomicBool::new(true));
        vm_idle.lock().insert(id, idle.clone());
        let g = partitioning.group_of_view(id).unwrap_or(0);
        let mp_tx = mp_txs[g].clone();
        let qs_tx = qs_tx.clone();
        let flight = flight.clone();
        let obs_parts = obs_parts.clone();
        let audit = audit.clone();
        // Delivery-replay views (Strobe/Convergent) log every delivered
        // event *before* handling it — log-ahead, so any consequent
        // `ActionInstalled` lands later in the WAL — and recovery replays
        // the per-view subsequence from genesis.
        let wal = wals.get(topology.shard_of(g)).cloned();
        let log_deliveries =
            wal.is_some() && reg.get(id).is_some_and(|e| e.kind.needs_delivery_replay());
        handles.push(std::thread::spawn(move || -> Result<(), String> {
            let mut obs = PipelineObs::new("ns");
            let mut hbc = HbClock::new(10 + id.0);
            while let Ok(msg) = rx.recv() {
                // One wakeup may carry a whole batch of updates; events
                // are handled in arrival order either way.
                let mut events: Vec<VmEvent> = Vec::with_capacity(1);
                match msg {
                    VmMsg::Updates(batch, stamp) => {
                        audit.recv(&mut hbc, &stamp);
                        for (u, sent) in batch {
                            obs.int_routing.record(sent.elapsed().as_nanos() as u64);
                            if log_deliveries {
                                if let Some(w) = &wal {
                                    let _ = w.lock().append(&WalRecord::VmUpdateDelivered {
                                        view: id,
                                        id: u.id,
                                    });
                                }
                            }
                            events.push(VmEvent::Update(u));
                        }
                    }
                    VmMsg::Answer(t, a, stamp) => {
                        audit.recv(&mut hbc, &stamp);
                        if log_deliveries {
                            if let Some(w) = &wal {
                                let _ = w.lock().append(&WalRecord::VmAnswerDelivered {
                                    view: id,
                                    token: t,
                                    answer: a.clone(),
                                });
                            }
                        }
                        events.push(VmEvent::Answer {
                            token: t,
                            answer: a,
                        });
                    }
                    VmMsg::Flush => {
                        if log_deliveries {
                            if let Some(w) = &wal {
                                let _ = w.lock().append(&WalRecord::VmFlushDelivered { view: id });
                            }
                        }
                        events.push(VmEvent::Flush);
                    }
                    VmMsg::Stop => break,
                }
                for event in events {
                    let t0 = Instant::now();
                    let outs = vm.handle(event).map_err(|e| e.to_string())?;
                    obs.vm_compute.record(t0.elapsed().as_nanos() as u64);
                    for o in outs {
                        match o {
                            VmOutput::Action(al) => {
                                flight.up();
                                let _ = mp_tx.send(MpMsg::Action(al, audit.stamp(&mut hbc)));
                                obs.note_depth("vm_to_mp", mp_tx.len() as u64);
                            }
                            VmOutput::Query { token, request } => {
                                flight.up();
                                let _ = qs_tx.send(QsMsg::Query(
                                    id,
                                    token,
                                    Box::new(request),
                                    audit.stamp(&mut hbc),
                                ));
                                obs.note_depth("vm_to_qs", qs_tx.len() as u64);
                            }
                        }
                    }
                }
                // SeqCst: the idle flag must not be observed set before the
                // sends above are visible — quiescence reads it unlocked.
                idle.store(vm.is_idle(), Ordering::SeqCst);
                flight.down();
            }
            obs_parts.lock().push(obs);
            Ok(())
        }));
    }

    // --- Merge process threads ---
    let mp_quiescent: Arc<AuditedMutex<Vec<Arc<AtomicBool>>>> =
        Arc::new(AuditedMutex::new("whips.mp_quiescent", Vec::new()));
    let merge_stats = Arc::new(AuditedMutex::new(
        "whips.merge_stats",
        vec![mvc_core::MergeStats::default(); groups],
    ));
    let commit_stats = Arc::new(AuditedMutex::new(
        "whips.commit_stats",
        vec![mvc_core::CommitStats::default(); groups],
    ));
    for ((g, rx), mut mp) in mp_rxs.into_iter().enumerate().zip(mps) {
        // Paint transitions feed both the WAL and the HB audit.
        if !wals.is_empty() || cfg!(feature = "hb-audit") {
            mp.enable_paint_events();
        }
        // This group's shard: its WAL stream and its commit scheduler.
        let wal = wals.get(topology.shard_of(g)).cloned();
        let quiescent = Arc::new(AtomicBool::new(true));
        mp_quiescent.lock().push(quiescent.clone());
        let wh_tx = wh_txs[topology.shard_of(g)].clone();
        let flight = flight.clone();
        let merge_stats = merge_stats.clone();
        let commit_stats = commit_stats.clone();
        let obs_parts = obs_parts.clone();
        let audit = audit.clone();
        handles.push(std::thread::spawn(move || -> Result<(), String> {
            let mut obs = PipelineObs::new("ns");
            let mut hbc = HbClock::new(1000 + g as u32);
            // AL arrival times, keyed like the simulator's merge-hold map:
            // (view, last covered update) identifies the list inside a WT.
            let mut al_recv: BTreeMap<(ViewId, UpdateId), Instant> = BTreeMap::new();
            // Checkpoint bookkeeping (durable runs): released transactions
            // awaiting their ack, and the install watermarks the recovery
            // gating needs.
            let mut retained: BTreeMap<TxnSeq, StoreTxn> = BTreeMap::new();
            let mut installed_rel = UpdateId::ZERO;
            let mut installed_al: BTreeMap<ViewId, UpdateId> = BTreeMap::new();
            while let Ok(msg) = rx.recv() {
                // Span stretches over every wakeup (including the drain's
                // Flush rounds), so concurrently-live groups overlap.
                obs.note_group_span(g, epoch.elapsed().as_nanos() as u64);
                let released = match msg {
                    MpMsg::Rels(rels, stamp) => {
                        audit.recv(&mut hbc, &stamp);
                        let mut released = Vec::new();
                        for (i, rel, sent) in rels {
                            obs.int_routing.record(sent.elapsed().as_nanos() as u64);
                            if let Some(w) = &wal {
                                let _ = w.lock().append(&WalRecord::RelInstalled {
                                    group: g as u64,
                                    id: i,
                                    rel: rel.clone(),
                                });
                                installed_rel = installed_rel.max(i);
                            }
                            released.extend(mp.on_rel(i, rel).map_err(|e| e.to_string())?);
                        }
                        released
                    }
                    MpMsg::Action(al, stamp) => {
                        audit.recv(&mut hbc, &stamp);
                        al_recv.insert((al.view, al.last), Instant::now());
                        if let Some(w) = &wal {
                            let _ = w.lock().append(&WalRecord::ActionInstalled {
                                group: g as u64,
                                al: al.clone(),
                            });
                            let e = installed_al.entry(al.view).or_insert(UpdateId::ZERO);
                            *e = (*e).max(al.last);
                        }
                        mp.on_action(al).map_err(|e| e.to_string())?
                    }
                    MpMsg::Committed(seq, stamp) => {
                        audit.recv(&mut hbc, &stamp);
                        if let Some(w) = &wal {
                            let _ = w.lock().append(&WalRecord::CommitAcked {
                                group: g as u64,
                                seq,
                            });
                        }
                        retained.remove(&seq);
                        mp.on_committed(seq)
                    }
                    MpMsg::Checkpoint(reply) => {
                        // Anchor read at this point in the group's FIFO:
                        // everything this MP logged before has a smaller
                        // absolute index and is reflected in the snapshot.
                        let anchor = wal.as_ref().map_or(0, |w| w.lock().next_index());
                        let _ = reply.send(MpCkSnapshot {
                            merge: mp.snapshot(),
                            retained: retained.values().cloned().collect(),
                            installed_rel,
                            installed_al: installed_al.iter().map(|(v, w)| (*v, *w)).collect(),
                            anchor,
                        });
                        Vec::new()
                    }
                    MpMsg::Flush => mp.flush(),
                    MpMsg::Stop => break,
                };
                let paints = mp.take_paint_events();
                if let Some(w) = &wal {
                    let mut w = w.lock();
                    for e in &paints {
                        let _ = w.append(&WalRecord::Paint {
                            group: g as u64,
                            update: e.update,
                            view: e.view,
                            color: e.color,
                            state: e.state,
                        });
                    }
                }
                // Paint transitions are checked against this thread's
                // clock, which already joined the stamp of the message
                // that caused them.
                audit.on_paints(g, &paints, &hbc);
                for t in released {
                    for a in &t.actions {
                        if let Some(arrived) = al_recv.remove(&(a.view, a.last)) {
                            obs.merge_hold.record(arrived.elapsed().as_nanos() as u64);
                        }
                    }
                    // Full payload, logged before the send: once this hits
                    // the disk the transaction survives a crash even if the
                    // committer never sees it. Retained until the ack comes
                    // back, so a checkpoint round can classify it.
                    if let Some(w) = &wal {
                        let _ = w.lock().append(&WalRecord::GroupReleased {
                            group: g as u64,
                            txn: t.clone(),
                        });
                        retained.insert(t.seq, t.clone());
                    }
                    flight.up();
                    let _ = wh_tx.send(WhMsg::Txn(g, t, Instant::now(), audit.stamp(&mut hbc)));
                    obs.note_depth("mp_to_wh", wh_tx.len() as u64);
                }
                obs.vut_occupancy.record(mp.live_rows() as u64);
                // SeqCst: pairs with the quiescence check — the flag must
                // not appear set before the releases above are visible.
                quiescent.store(mp.is_quiescent(), Ordering::SeqCst);
                merge_stats.lock()[g] = mp.stats();
                commit_stats.lock()[g] = mp.commit_stats();
                flight.down();
            }
            obs_parts.lock().push(obs);
            Ok(())
        }));
    }

    // --- Query server thread ---
    {
        let cluster = cluster.clone();
        let int_tx = int_tx.clone();
        let flight = flight.clone();
        let batcher = batcher.clone();
        let delay = config.query_delay;
        handles.push(std::thread::spawn(move || -> Result<(), String> {
            // Queries are served concurrently (real sources answer many
            // clients at once): with a configured delay, each query gets
            // its own short-lived worker so service time does not
            // serialize the whole pipeline.
            let mut workers = Vec::new();
            while let Ok(msg) = qs_rx.recv() {
                match msg {
                    QsMsg::Query(v, token, request, stamp) => {
                        let cluster = cluster.clone();
                        let int_tx = int_tx.clone();
                        let flight = flight.clone();
                        let batcher = batcher.clone();
                        let serve = move || -> Result<(), String> {
                            if !delay.is_zero() {
                                std::thread::sleep(delay);
                            }
                            // Lock serializes with commits: the answer
                            // state is consistent with the updates
                            // already reported.
                            let answer = {
                                let c = cluster.lock();
                                answer_query(&c, &request).map_err(|e| e.to_string())?
                            };
                            // Seal any buffered updates before reporting
                            // the answer: every update ≤ the answer state
                            // was pushed under the cluster lock before the
                            // answer was computed, so flushing here puts
                            // them ahead of the AnswerFor in the FIFO
                            // integrator queue — the ordering invariant
                            // batching must not break.
                            batcher.flush();
                            flight.up();
                            // The query's own stamp rides through: the
                            // answer happens-after the question, and the
                            // concurrent workers own no clock.
                            let _ = int_tx.send(IntMsg::AnswerFor(v, token, answer, stamp));
                            flight.down();
                            Ok(())
                        };
                        if delay.is_zero() {
                            serve()?;
                        } else {
                            workers.push(std::thread::spawn(serve));
                        }
                    }
                    QsMsg::Stop => break,
                }
            }
            for w in workers {
                w.join()
                    .map_err(|_| "query worker panicked".to_string())??;
            }
            Ok(())
        }));
    }

    // --- Warehouse committer thread(s) ---
    // Sharded: one commit scheduler per shard — a per-txn applier over
    // its own store, WAL stream, commit log and cut stack, drawing a
    // global ticket per applied transaction (the observed linearization
    // `merge_shards` replays after the joins). Unsharded: the classic
    // single committer with group-commit batching and concurrent
    // delay workers, byte-identical to the pre-sharding runtime.
    let mut committer_handles: Vec<std::thread::JoinHandle<Result<Vec<u64>, String>>> = Vec::new();
    if sharded {
        for (s, wh_rx) in wh_rxs.drain(..).enumerate() {
            let shard_wh = stores[s].clone();
            let shard_log = shard_logs[s].clone();
            let shard_wal = wals.get(s).cloned();
            let ticket = flush_tickets[s].clone();
            let cuts = shard_cuts[s].clone();
            let mp_txs = mp_txs.clone();
            let flight = flight.clone();
            let delay = config.commit_delay;
            let obs_parts = obs_parts.clone();
            let audit = audit.clone();
            let watermarks = watermarks.clone();
            let ticket_counter = ticket_counter.clone();
            committer_handles.push(std::thread::spawn(move || -> Result<Vec<u64>, String> {
                let mut obs = PipelineObs::new("ns");
                let mut tickets: Vec<u64> = Vec::new();
                while let Ok(msg) = wh_rx.recv() {
                    match msg {
                        WhMsg::Txn(g, txn, released, stamp) => {
                            // Per-txn apply; a configured commit latency is
                            // slept inline (one scheduler per shard — the
                            // cross-txn overlap now comes from the shards).
                            if !delay.is_zero() {
                                std::thread::sleep(delay);
                            }
                            let ack = {
                                let mut w = shard_wh.lock();
                                if let Some(shard_wal) = &shard_wal {
                                    let _ = shard_wal.lock().append(&WalRecord::TxnCommitted {
                                        group: g as u64,
                                        seq: txn.seq,
                                    });
                                }
                                // SeqCst: the global ticket is drawn under
                                // the shard lock in apply order; the merge
                                // validates per-shard monotonicity, so the
                                // draw must not reorder around the apply it
                                // linearizes.
                                tickets.push(ticket_counter.fetch_add(1, Ordering::SeqCst));
                                let local = w.apply(&txn).map_err(|e| e.to_string())?.commit_index;
                                shard_log.lock().push(CommitLogEntry {
                                    group: g,
                                    seq: txn.seq,
                                    rows: txn.rows.clone(),
                                    views: txn.views.clone(),
                                });
                                // The commit-order audit still runs (groups
                                // are global); the read-path audit legs are
                                // skipped sharded — see ThreadedConfig.
                                let ack = audit.on_commit(g, txn.seq, &txn.views, &stamp);
                                let changed: Vec<ViewId> = txn.views.iter().copied().collect();
                                cuts.publish(local, w.read(&changed));
                                // Watermark register last, still under the
                                // shard lock: any register value a reader
                                // snapshots is already resolvable in this
                                // shard's cut stack.
                                watermarks.publish(s, local);
                                ack
                            };
                            obs.commit_apply
                                .record(released.elapsed().as_nanos() as u64);
                            // Group commit: this shard's TxnCommitted is
                            // durable before its ack leaves the committer.
                            // Concurrent shard committers share one ticket
                            // per shard stream, so each fsync covers every
                            // record batched behind the flush leader.
                            if let (Some(window), Some(l)) = (flush_window, &shard_wal) {
                                let _ = ticket.wait_flush(window, || l.lock().flush());
                            }
                            flight.up();
                            let _ = mp_txs[g].send(MpMsg::Committed(txn.seq, ack));
                            obs.note_depth("wh_to_mp", mp_txs[g].len() as u64);
                            flight.down();
                        }
                        WhMsg::Stop => break,
                    }
                }
                obs_parts.lock().push(obs);
                Ok(tickets)
            }));
        }
    } else {
        let wh_rx = wh_rxs.remove(0);
        let warehouse = stores[0].clone();
        let commit_log = shard_logs[0].clone();
        let mp_txs = mp_txs.clone();
        let int_tx = int_tx.clone();
        let flight = flight.clone();
        let delay = config.commit_delay;
        let obs_parts = obs_parts.clone();
        let wal = wals.first().cloned();
        let ticket = flush_tickets[0].clone();
        let audit = audit.clone();
        let cuts = shard_cuts[0].clone();
        handles.push(std::thread::spawn(move || -> Result<(), String> {
            // Commits run concurrently when a latency is configured (a
            // real DBMS overlaps independent transactions); ordering of
            // *dependent* transactions is the merge process's commit
            // scheduler's responsibility (§4.3) — it never has two
            // dependent transactions in flight under the ordered
            // policies, so concurrent workers are safe.
            let mut workers = Vec::new();
            let mut local_obs = PipelineObs::new("ns");
            // Commits applied since the committer last wrote a checkpoint
            // (only this thread touches it; Cell keeps the closures Fn).
            let commits_since_ck = std::cell::Cell::new(0u64);
            // Checkpoint round (§ durable threaded runtime): ask every
            // merge process, then the integrator, for a state snapshot
            // through their own FIFOs, then assemble a CheckpointState
            // under the warehouse+commit-log locks and append it. The
            // round runs while this committer still holds undrained Txn
            // messages in flight, so the driver cannot observe quiescence
            // and Stop the processes mid-round.
            let checkpoint_round = || -> Result<(), String> {
                let mut waiting = Vec::with_capacity(mp_txs.len());
                for tx in mp_txs.iter() {
                    let (rtx, rrx) = crossbeam::channel::unbounded();
                    flight.up();
                    let _ = tx.send(MpMsg::Checkpoint(rtx));
                    waiting.push(rrx);
                }
                let mut mp_snaps = Vec::with_capacity(waiting.len());
                for rrx in waiting {
                    mp_snaps.push(
                        rrx.recv()
                            .map_err(|_| "merge process exited mid-checkpoint".to_string())?,
                    );
                }
                let (rtx, rrx) = crossbeam::channel::unbounded();
                flight.up();
                let _ = int_tx.send(IntMsg::Checkpoint(rtx));
                let int_snap = rrx
                    .recv()
                    .map_err(|_| "integrator exited mid-checkpoint".to_string())?;
                let ck = {
                    // Same lock order as commit_run: warehouse, then log.
                    let w = warehouse.lock();
                    let log = commit_log.lock();
                    // This thread is the only committer, so the commit log
                    // has not moved since the snapshots above: a retained
                    // txn present in the log is committed-but-unacked,
                    // anything else is released-but-uncommitted.
                    let committed: BTreeSet<(usize, TxnSeq)> =
                        log.iter().map(|e| (e.group, e.seq)).collect();
                    let mut pending = Vec::new();
                    let mut unacked = Vec::new();
                    let mut merges = Vec::with_capacity(mp_snaps.len());
                    let mut installed_rel = Vec::with_capacity(mp_snaps.len());
                    let mut installed_al = Vec::new();
                    let mut merge_anchors = Vec::with_capacity(mp_snaps.len());
                    for (g, snap) in mp_snaps.into_iter().enumerate() {
                        for t in snap.retained {
                            if committed.contains(&(g, t.seq)) {
                                unacked.push((g as u64, t.seq));
                            } else {
                                pending.push((g as u64, t));
                            }
                        }
                        merges.push(snap.merge);
                        installed_rel.push(snap.installed_rel);
                        installed_al.extend(snap.installed_al);
                        merge_anchors.push(snap.anchor);
                    }
                    CheckpointState {
                        warehouse: w.snapshot(),
                        merges,
                        commit_log: log
                            .iter()
                            .map(|e| CommitRecord {
                                group: e.group as u64,
                                seq: e.seq,
                                rows: e.rows.clone(),
                                views: e.views.clone(),
                            })
                            .collect(),
                        route_lists: int_snap.route_lists,
                        installed_rel,
                        installed_al,
                        pending,
                        unacked,
                        last_logged_src: int_snap.last_logged_src,
                        next_id: int_snap.next_id,
                        received: int_snap.received,
                        dropped: int_snap.dropped,
                        merge_anchors,
                        routing_anchor: int_snap.anchor,
                    }
                };
                if let Some(l) = &wal {
                    // The append also compacts dead segments when the log
                    // is rotated with compaction enabled.
                    let _ = l.lock().append(&WalRecord::Checkpoint(Box::new(ck)));
                }
                Ok(())
            };
            // Group commit (zero commit latency): drain whatever releases
            // are already queued behind the first and apply the whole run
            // under ONE warehouse-lock acquisition. WAL `TxnCommitted`
            // order, history order, and ack order all match the per-txn
            // path — only the locking is amortized.
            let commit_run = |run: Vec<(usize, StoreTxn, Instant, Stamp)>,
                              obs: &mut PipelineObs|
             -> Result<(), String> {
                let acks = {
                    let mut w = warehouse.lock();
                    // Under the warehouse lock so the log's TxnCommitted
                    // order matches the history.
                    if let Some(l) = &wal {
                        let mut l = l.lock();
                        for (g, txn, _, _) in &run {
                            let _ = l.append(&WalRecord::TxnCommitted {
                                group: *g as u64,
                                seq: txn.seq,
                            });
                        }
                    }
                    let base = w.commit_count();
                    w.apply_batch(run.iter().map(|(_, t, _, _)| t))
                        .map_err(|(_, e)| e.to_string())?;
                    let mut log = commit_log.lock();
                    let mut acks = Vec::with_capacity(run.len());
                    for (i, (g, txn, released, stamp)) in run.iter().enumerate() {
                        log.push(CommitLogEntry {
                            group: *g,
                            seq: txn.seq,
                            rows: txn.rows.clone(),
                            views: txn.views.clone(),
                        });
                        // WT released by the merge process -> applied at
                        // the warehouse (same span the simulator measures
                        // in steps).
                        obs.commit_apply
                            .record(released.elapsed().as_nanos() as u64);
                        // Checked under the warehouse lock so the audit
                        // sees commits in history order; the returned
                        // clock stamps the ack.
                        let ack = audit.on_commit(*g, txn.seq, &txn.views, stamp);
                        // Publish the commit's new view versions while
                        // still holding the warehouse lock (watermark
                        // order = history order), stamped with the ack
                        // clock: every certified read of this cut
                        // happens-after the commit that produced it.
                        let watermark = base + i as u64 + 1;
                        let changed: Vec<ViewId> = txn.views.iter().copied().collect();
                        let receipt = cuts.publish_stamped(
                            watermark,
                            w.read(&changed),
                            audit.on_publish(watermark, &ack),
                        );
                        // Any GC this publish triggered must happen-after
                        // every read of the pruned versions.
                        audit.on_gc(&receipt.gc, &ack);
                        acks.push((*g, txn.seq, ack));
                    }
                    acks
                };
                // Group commit: every TxnCommitted appended above is
                // durable before any ack leaves this committer. The
                // leader holds the flush window open so records from
                // concurrently-arriving runs share one fsync.
                if let (Some(window), Some(l)) = (flush_window, &wal) {
                    let _ = ticket.wait_flush(window, || l.lock().flush());
                }
                // Periodic checkpoint, before the acks ship: the consumed
                // Txn messages keep `flight` nonzero for the whole round.
                if checkpoint_every > 0 && wal.is_some() {
                    let n = commits_since_ck.get() + run.len() as u64;
                    if n >= checkpoint_every {
                        commits_since_ck.set(0);
                        checkpoint_round()?;
                    } else {
                        commits_since_ck.set(n);
                    }
                }
                for (g, seq, ack) in acks {
                    flight.up();
                    let _ = mp_txs[g].send(MpMsg::Committed(seq, ack));
                    obs.note_depth("wh_to_mp", mp_txs[g].len() as u64);
                    flight.down();
                }
                Ok(())
            };
            'recv: while let Ok(msg) = wh_rx.recv() {
                match msg {
                    WhMsg::Txn(g, txn, released, stamp) => {
                        if delay.is_zero() {
                            let mut run = vec![(g, txn, released, stamp)];
                            let mut stop_after = false;
                            while let Ok(next) = wh_rx.try_recv() {
                                match next {
                                    WhMsg::Txn(g2, t2, r2, s2) => run.push((g2, t2, r2, s2)),
                                    WhMsg::Stop => {
                                        stop_after = true;
                                        break;
                                    }
                                }
                            }
                            commit_run(run, &mut local_obs)?;
                            if stop_after {
                                break 'recv;
                            }
                        } else {
                            // With a configured commit latency, commits run
                            // concurrently (a real DBMS overlaps independent
                            // transactions); ordering of *dependent*
                            // transactions is the commit scheduler's
                            // responsibility (§4.3) — it never has two
                            // dependent transactions in flight under the
                            // ordered policies, so workers are safe.
                            let warehouse = warehouse.clone();
                            let commit_log = commit_log.clone();
                            let mp_tx = mp_txs[g].clone();
                            let flight = flight.clone();
                            let wal = wal.clone();
                            let ticket = ticket.clone();
                            let audit = audit.clone();
                            let obs_parts = obs_parts.clone();
                            let cuts = cuts.clone();
                            workers.push(std::thread::spawn(move || -> Result<(), String> {
                                let mut obs = PipelineObs::new("ns");
                                std::thread::sleep(delay);
                                let ack = {
                                    let mut w = warehouse.lock();
                                    if let Some(l) = &wal {
                                        let _ = l.lock().append(&WalRecord::TxnCommitted {
                                            group: g as u64,
                                            seq: txn.seq,
                                        });
                                    }
                                    let watermark =
                                        w.apply(&txn).map_err(|e| e.to_string())?.commit_index;
                                    commit_log.lock().push(CommitLogEntry {
                                        group: g,
                                        seq: txn.seq,
                                        rows: txn.rows.clone(),
                                        views: txn.views.clone(),
                                    });
                                    let ack = audit.on_commit(g, txn.seq, &txn.views, &stamp);
                                    // Ack-stamped publish under the
                                    // warehouse lock, exactly like the
                                    // group-commit path above.
                                    let changed: Vec<ViewId> = txn.views.iter().copied().collect();
                                    let receipt = cuts.publish_stamped(
                                        watermark,
                                        w.read(&changed),
                                        audit.on_publish(watermark, &ack),
                                    );
                                    audit.on_gc(&receipt.gc, &ack);
                                    ack
                                };
                                obs.commit_apply
                                    .record(released.elapsed().as_nanos() as u64);
                                // Group commit across concurrent workers:
                                // the flush leader's fsync covers every
                                // TxnCommitted batched behind it.
                                if let (Some(window), Some(l)) = (flush_window, &wal) {
                                    let _ = ticket.wait_flush(window, || l.lock().flush());
                                }
                                flight.up();
                                let _ = mp_tx.send(MpMsg::Committed(txn.seq, ack));
                                obs.note_depth("wh_to_mp", mp_tx.len() as u64);
                                flight.down();
                                obs_parts.lock().push(obs);
                                Ok(())
                            }));
                        }
                    }
                    WhMsg::Stop => break,
                }
            }
            for w in workers {
                w.join()
                    .map_err(|_| "commit worker panicked".to_string())??;
            }
            obs_parts.lock().push(local_obs);
            Ok(())
        }));
    }

    // --- Integrator thread ---
    type RoutingState = (
        Vec<BTreeMap<UpdateId, GlobalSeq>>,
        BTreeSet<GlobalSeq>,
        ViewRegistry,
    );
    let routing_state: Arc<AuditedMutex<Option<RoutingState>>> =
        Arc::new(AuditedMutex::new("whips.routing_state", None));
    {
        // The assembled integrator carries the (possibly coarsened)
        // partitioning computed above — NOT a re-derived one, or a
        // `groups` cap would desynchronize routing from the per-group
        // threads and the shard topology.
        let registry = reg.clone();
        let vm_txs = vm_txs.clone();
        let mp_txs = mp_txs.clone();
        let flight = flight.clone();
        let routing_state = routing_state.clone();
        let obs_parts = obs_parts.clone();
        let wals = wals.clone();
        let ngroups = groups;
        let audit = audit.clone();
        handles.push(std::thread::spawn(move || -> Result<(), String> {
            let mut obs = PipelineObs::new("ns");
            let mut hbc = HbClock::new(1);
            let mut group_updates: Vec<BTreeMap<UpdateId, GlobalSeq>> =
                vec![BTreeMap::new(); ngroups];
            let mut routed: BTreeSet<GlobalSeq> = BTreeSet::new();
            // Checkpoint bookkeeping (durable runs): routing history from
            // genesis and the last source commit durably logged.
            let mut durable_routes: Vec<RoutedUpdate> = Vec::new();
            let mut last_logged_src = GlobalSeq::INITIAL;
            while let Ok(msg) = int_rx.recv() {
                match msg {
                    IntMsg::Updates(batch) => {
                        let n = batch.len() as i64;
                        // Per-destination accumulators for this batch: one
                        // sealed message per touched merge group and per
                        // relevant view, however many updates arrived.
                        let mut mp_out: Vec<Vec<(UpdateId, BTreeSet<ViewId>, Instant)>> =
                            vec![Vec::new(); ngroups];
                        let mut vm_out: BTreeMap<
                            ViewId,
                            Vec<(mvc_viewmgr::NumberedUpdate, Instant)>,
                        > = BTreeMap::new();
                        for (u, sent, stamp) in batch {
                            audit.recv(&mut hbc, &stamp);
                            obs.src_to_int_wait.record(sent.elapsed().as_nanos() as u64);
                            for w in &wals {
                                // Shares the routed payload's handle. Every
                                // shard stream carries the full source feed
                                // so each log replays standalone.
                                let _ = w.lock().append(&WalRecord::SourceUpdate(Arc::clone(&u)));
                            }
                            if !wals.is_empty() {
                                last_logged_src = last_logged_src.max(u.seq);
                            }
                            for r in integrator.route(u) {
                                routed.insert(r.numbered.seq());
                                group_updates[r.group].insert(r.numbered.id, r.numbered.seq());
                                if !wals.is_empty() {
                                    durable_routes.push(RoutedUpdate {
                                        group: r.group as u64,
                                        id: r.numbered.id,
                                        update: Arc::clone(&r.numbered.update),
                                        rel: r.rel.clone(),
                                    });
                                }
                                mp_out[r.group].push((
                                    r.numbered.id,
                                    r.rel.clone(),
                                    Instant::now(),
                                ));
                                for v in &r.rel {
                                    // seal: fanning the routed update out
                                    // into each relevant view's batch
                                    // clones the Arc handle, not the payload
                                    vm_out
                                        .entry(*v)
                                        .or_default()
                                        .push((r.numbered.clone(), Instant::now()));
                                }
                            }
                        }
                        // REL batches go out before any update batch: a VM
                        // can only produce an action for an update after
                        // its merge group already holds the REL entry,
                        // exactly as with per-update sends.
                        for (g, rels) in mp_out.into_iter().enumerate() {
                            if rels.is_empty() {
                                continue;
                            }
                            flight.up();
                            let _ = mp_txs[g].send(MpMsg::Rels(rels, audit.stamp(&mut hbc)));
                            obs.note_depth("int_to_mp", mp_txs[g].len() as u64);
                        }
                        for (v, ups) in vm_out {
                            flight.up();
                            let _ = vm_txs[&v].send(VmMsg::Updates(ups, audit.stamp(&mut hbc)));
                            obs.note_depth("int_to_vm", vm_txs[&v].len() as u64);
                        }
                        flight.down_n(n);
                    }
                    IntMsg::AnswerFor(v, token, answer, stamp) => {
                        audit.recv(&mut hbc, &stamp);
                        flight.up();
                        let _ =
                            vm_txs[&v].send(VmMsg::Answer(token, answer, audit.stamp(&mut hbc)));
                        flight.down();
                    }
                    IntMsg::Checkpoint(reply) => {
                        // Anchor at this point in the integrator FIFO:
                        // every SourceUpdate this thread logged before has
                        // a smaller index and is covered by route_lists.
                        let anchor = wals.first().map_or(0, |w| w.lock().next_index());
                        let (next_id, received, dropped) = integrator.counters();
                        let _ = reply.send(IntCkSnapshot {
                            route_lists: durable_routes.clone(),
                            next_id,
                            received,
                            dropped,
                            last_logged_src,
                            anchor,
                        });
                        flight.down();
                    }
                    IntMsg::Stop => break,
                }
            }
            obs_parts.lock().push(obs);
            *routing_state.lock() = Some((group_updates, routed, registry));
            Ok(())
        }));
    }

    // --- Concurrent reader (§1.1 customer inquiry) ---
    let reader_stop = Arc::new(AtomicBool::new(false));
    let reader_handle = if config.reader_views.is_empty() {
        None
    } else {
        let read_stores = stores.clone();
        let owned = shard_views.clone();
        let views = config.reader_views.clone();
        let interval = config.reader_interval;
        let stop = reader_stop.clone();
        Some(std::thread::spawn(move || {
            let mut samples = Vec::new();
            // SeqCst: plain stop flag; strongest order costs nothing here.
            while !stop.load(Ordering::SeqCst) {
                // One shard lock at a time, never nested: shards own
                // disjoint view sets, so each sub-read is a consistent
                // cut of its shard and the union is well defined.
                // Unsharded the single store owns every view — identical
                // to the classic one-lock sample.
                let mut sample = BTreeMap::new();
                for (s, store) in read_stores.iter().enumerate() {
                    let wanted: Vec<ViewId> = views
                        .iter()
                        .copied()
                        .filter(|v| owned[s].contains(v))
                        .collect();
                    if wanted.is_empty() {
                        continue;
                    }
                    let w = store.lock();
                    sample.extend(w.read(&wanted));
                }
                samples.push(sample);
                std::thread::sleep(interval);
            }
            samples
        }))
    };

    // --- MVCC reader fleet (closed loop) ---
    // K reader threads hammer multi-view snapshot reads through the
    // version store — never taking the warehouse lock, so readers and
    // commits only contend on the (short) version-store mutex. Each
    // iteration alternates reading the newest cut with a re-read at the
    // session's own watermark (exercising the monotonic-session path).
    // Observations are retained and certified after the run.
    let mvcc_reader_stop = Arc::new(AtomicBool::new(false));
    let mut mvcc_reader_handles: Vec<std::thread::JoinHandle<ReaderYield>> = Vec::new();
    for k in 0..config.readers {
        let think = config.reader_think_time;
        let stop = mvcc_reader_stop.clone();
        let obs_parts = obs_parts.clone();
        // Only the first reader carries an injected fault: one panicking
        // thread among healthy peers is the interesting shutdown case.
        let fault = if k == 0 { config.fault.clone() } else { None };
        if sharded {
            // Cross-shard frontier reader: per-shard sessions plus the
            // watermark-register protocol. The read-path hb audit is
            // skipped here (see `ThreadedConfig::shards`); certification
            // comes from `Oracle::check_sharded` + remapped `check_reads`.
            let mut sessions: Vec<_> = shard_cuts.iter().map(|c| c.open_session()).collect();
            let views = shard_views.clone();
            let watermarks = watermarks.clone();
            mvcc_reader_handles.push(std::thread::spawn(move || -> ReaderYield {
                let mut obs = PipelineObs::new("ns");
                let mut shard_observations: Vec<Vec<mvc_readpath::ReadObservation>> =
                    vec![Vec::new(); sessions.len()];
                let mut frontiers = Vec::new();
                let mut seq = 0u64;
                let mut reads_done = 0u64;
                // SeqCst: plain stop flag; strongest order costs nothing here.
                while !stop.load(Ordering::SeqCst) {
                    let begun = Instant::now();
                    // Frontier protocol: snapshot every shard's register
                    // FIRST, then read each shard at its entry. Registers
                    // are monotone (fetch_max) and writers publish only
                    // after the cut exists under the shard lock, so every
                    // target is published and ≥ this reader's previous
                    // target — the combined cut is a certifiable
                    // cross-shard snapshot and per-reader frontiers are
                    // pointwise monotone.
                    let frontier = watermarks.snapshot();
                    frontiers.push(ReadFrontier {
                        reader: k,
                        seq,
                        watermarks: frontier.clone(),
                    });
                    seq += 1;
                    for (s, session) in sessions.iter_mut().enumerate() {
                        let out = session
                            .read_at(frontier[s], &views[s])
                            .expect("frontier ≤ shard head by publication order");
                        obs.note_read(out.staleness, out.chain_len, out.gc_lag);
                        shard_observations[s].push(out.observation);
                    }
                    obs.read_latency.record(begun.elapsed().as_nanos() as u64);
                    reads_done += 1;
                    if let Some(ThreadFault::ReaderPanic { after_reads }) = fault {
                        if reads_done >= after_reads {
                            panic!("injected reader fault after {reads_done} reads");
                        }
                    }
                    if !think.is_zero() {
                        std::thread::sleep(think);
                    }
                }
                obs_parts.lock().push(obs);
                ReaderYield {
                    observations: Vec::new(),
                    shard_observations,
                    frontiers,
                }
            }));
            continue;
        }
        let mut session = shard_cuts[0].open_session();
        let views = shard_views[0].clone();
        let audit = audit.clone();
        mvcc_reader_handles.push(std::thread::spawn(move || -> ReaderYield {
            let mut obs = PipelineObs::new("ns");
            let mut hbc = HbClock::new(2000 + k as u32);
            let mut observations = Vec::new();
            let mut at_head = true;
            let mut reads_done = 0u64;
            // SeqCst: plain stop flag; strongest order costs nothing here.
            while !stop.load(Ordering::SeqCst) {
                let begun = Instant::now();
                // The pre-read clock snapshot pins the session in the
                // version store: any GC while this pin is live is
                // licensed by (joins) it, proving the reclamation
                // happens-after everything this reader has seen.
                let result = if at_head {
                    session.read_latest_stamped(&views, audit.reader_stamp(&mut hbc))
                } else {
                    let seen = session.last_seen();
                    session.read_at_stamped(seen, &views, audit.reader_stamp(&mut hbc))
                };
                at_head = !at_head;
                let out = result.expect("chains seeded at build, target ≤ head");
                // Certified read: must happen-after the commit that
                // published its watermark. The returned post-join
                // clock licenses any GC this read's pin advance
                // triggered.
                let post = audit.on_read(
                    out.observation.session,
                    out.observation.cut.watermark,
                    &out.publish_stamp,
                    &mut hbc,
                );
                audit.on_gc(&out.gc, &post);
                obs.read_latency.record(begun.elapsed().as_nanos() as u64);
                obs.note_read(out.staleness, out.chain_len, out.gc_lag);
                observations.push(out.observation);
                reads_done += 1;
                if let Some(ThreadFault::ReaderPanic { after_reads }) = fault {
                    if reads_done >= after_reads {
                        panic!("injected reader fault after {reads_done} reads");
                    }
                }
                if !think.is_zero() {
                    std::thread::sleep(think);
                }
            }
            obs_parts.lock().push(obs);
            ReaderYield {
                observations,
                shard_observations: Vec::new(),
                frontiers: Vec::new(),
            }
        }));
    }

    // --- Queue-depth sampler ---
    // Senders gauge a channel only at send time, so between bursts the
    // recorded depths never decay; this thread samples every channel on a
    // fixed interval so the gauges also see idle-time drain-down.
    let sampler_stop = Arc::new(AtomicBool::new(false));
    let sampler_handle = if config.depth_sample_interval.is_zero() {
        None
    } else {
        let int_tx = int_tx.clone();
        let qs_tx = qs_tx.clone();
        let wh_txs = wh_txs.clone();
        let vm_txs = vm_txs.clone();
        let mp_txs = mp_txs.clone();
        let interval = config.depth_sample_interval;
        let stop = sampler_stop.clone();
        let obs_parts = obs_parts.clone();
        Some(std::thread::spawn(move || {
            let mut obs = PipelineObs::new("ns");
            // SeqCst: plain stop flag; strongest order costs nothing here.
            while !stop.load(Ordering::SeqCst) {
                obs.note_depth("src_to_int", int_tx.len() as u64);
                obs.note_depth("vm_to_qs", qs_tx.len() as u64);
                for tx in &wh_txs {
                    obs.note_depth("mp_to_wh", tx.len() as u64);
                }
                for tx in vm_txs.values() {
                    obs.note_depth("int_to_vm", tx.len() as u64);
                }
                for tx in &mp_txs {
                    obs.note_depth("int_to_mp", tx.len() as u64);
                }
                std::thread::sleep(interval);
            }
            obs_parts.lock().push(obs);
        }))
    };

    // --- Driver (this thread) ---
    let started = Instant::now();
    let injected = workload.len() as u64;
    let mut driver_obs = PipelineObs::new("ns");
    let queue_depths = |vm_txs: &BTreeMap<ViewId, crossbeam::channel::Sender<VmMsg>>,
                        mp_txs: &[crossbeam::channel::Sender<MpMsg>]|
     -> Vec<(String, usize)> {
        let mut d = vec![
            ("src_to_int".to_string(), int_tx.len()),
            ("vm_to_qs".to_string(), qs_tx.len()),
            (
                "mp_to_wh".to_string(),
                wh_txs.iter().map(crossbeam::channel::Sender::len).sum(),
            ),
        ];
        for (v, tx) in vm_txs {
            d.push((format!("vm:{v}"), tx.len()));
        }
        for (g, tx) in mp_txs.iter().enumerate() {
            d.push((format!("mp:{g}"), tx.len()));
        }
        d
    };
    let quiescent_now = |flight: &Flight| -> bool {
        flight.zero()
            // SeqCst: both flag families pair with the SeqCst stores in
            // the VM/MP loops, so this composite test is conservative.
            && vm_idle.lock().values().all(|f| f.load(Ordering::SeqCst))
            && mp_quiescent.lock().iter().all(|f| f.load(Ordering::SeqCst))
    };
    // Inject + drain run inside a closure so that EVERY exit — success,
    // drain timeout, source error — falls through to the unconditional
    // shutdown below. The old early returns leaked every worker thread
    // (and the reader/sampler, which never saw their stop flags) on the
    // timeout paths.
    let mut driver_hbc = HbClock::new(0);
    let run_result: Result<Duration, SimError> = (|| {
        for t in workload {
            if config.sequential {
                // wait for pipeline quiescence before the next transaction
                let deadline = Instant::now() + config.drain_timeout;
                loop {
                    if quiescent_now(&flight) {
                        break;
                    }
                    if Instant::now() > deadline {
                        return Err(SimError::DrainTimeout {
                            in_flight: flight.count(),
                            queue_depths: queue_depths(&vm_txs, &mp_txs),
                        });
                    }
                    std::thread::yield_now();
                }
            }
            {
                let mut c = cluster.lock();
                let res = if t.global {
                    c.execute_global(t.source, t.writes)
                } else {
                    c.execute(t.source, t.writes)
                }
                .map_err(SimError::Source)?;
                // push under the lock so answers computed later cannot
                // overtake this update in the integrator queue; the
                // batcher seals full/stale batches inside the push
                flight.up();
                batcher.push(Arc::new(res), audit.stamp(&mut driver_hbc));
                driver_obs.note_depth("src_to_int", int_tx.len() as u64);
            }
            if !config.pacing.is_zero() {
                std::thread::sleep(config.pacing);
            }
        }
        // The workload is done: seal the tail batch, or the drain below
        // would wait on updates no push will ever flush.
        batcher.flush();

        // --- Drain ---
        let deadline = Instant::now() + config.drain_timeout;
        let mut flushed_all = false;
        loop {
            if quiescent_now(&flight) {
                if flushed_all {
                    break;
                }
                // one full flush round even when everything looks idle
                for tx in vm_txs.values() {
                    flight.up();
                    let _ = tx.send(VmMsg::Flush);
                }
                for tx in &mp_txs {
                    flight.up();
                    let _ = tx.send(MpMsg::Flush);
                }
                flushed_all = true;
            } else if flight.zero() {
                // stalled with nothing in flight: nudge batching components
                for (v, idle) in vm_idle.lock().iter() {
                    // SeqCst: matches the store in the VM loop.
                    if !idle.load(Ordering::SeqCst) {
                        flight.up();
                        let _ = vm_txs[v].send(VmMsg::Flush);
                    }
                }
                for tx in &mp_txs {
                    flight.up();
                    let _ = tx.send(MpMsg::Flush);
                }
            }
            if Instant::now() > deadline {
                return Err(SimError::DrainTimeout {
                    in_flight: flight.count(),
                    queue_depths: queue_depths(&vm_txs, &mp_txs),
                });
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(started.elapsed())
    })();
    // Drain diagnostics regardless of outcome — the same counters a
    // DrainTimeout error carries; a clean run must show 0 / all-empty.
    let in_flight_at_end = flight.count();
    let queue_depths_at_end = queue_depths(&vm_txs, &mp_txs);

    // --- Shutdown (unconditional: every spawned thread is joined on
    // every path; a timed-out run still tears down cleanly, it just
    // waits for in-flight work to finish behind the Stop messages) ---
    // SeqCst: stop flags for the reader/sampler loops above.
    reader_stop.store(true, Ordering::SeqCst);
    mvcc_reader_stop.store(true, Ordering::SeqCst);
    // SeqCst: same plain stop-flag pattern as the two above.
    sampler_stop.store(true, Ordering::SeqCst);
    let _ = int_tx.send(IntMsg::Stop);
    let _ = qs_tx.send(QsMsg::Stop);
    for tx in &wh_txs {
        let _ = tx.send(WhMsg::Stop);
    }
    for tx in vm_txs.values() {
        let _ = tx.send(VmMsg::Stop);
    }
    for tx in &mp_txs {
        let _ = tx.send(MpMsg::Stop);
    }
    let mut thread_errors: Vec<String> = Vec::new();
    for h in handles {
        match h.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => thread_errors.push(format!("thread error: {e}")),
            Err(p) => thread_errors.push(format!("thread panicked: {}", panic_message(p))),
        }
    }
    // Sharded commit schedulers hand back their drawn tickets in spawn
    // (= shard) order; a failed shard contributes an empty vector and a
    // thread error that aborts the run before any merge is attempted.
    let mut shard_tickets: Vec<Vec<u64>> = Vec::new();
    for h in committer_handles {
        match h.join() {
            Ok(Ok(t)) => shard_tickets.push(t),
            Ok(Err(e)) => {
                thread_errors.push(format!("committer error: {e}"));
                shard_tickets.push(Vec::new());
            }
            Err(p) => {
                thread_errors.push(format!("committer panicked: {}", panic_message(p)));
                shard_tickets.push(Vec::new());
            }
        }
    }
    let reader_samples = match reader_handle {
        Some(h) => match h.join() {
            Ok(samples) => samples,
            Err(p) => {
                thread_errors.push(format!("reader panicked: {}", panic_message(p)));
                Vec::new()
            }
        },
        None => Vec::new(),
    };
    let mut read_observations = Vec::new();
    let mut reader_shard_obs: Vec<Vec<mvc_readpath::ReadObservation>> = vec![Vec::new(); shards];
    let mut frontiers: Vec<ReadFrontier> = Vec::new();
    for h in mvcc_reader_handles {
        match h.join() {
            Ok(y) => {
                read_observations.extend(y.observations);
                for (s, o) in y.shard_observations.into_iter().enumerate() {
                    reader_shard_obs[s].extend(o);
                }
                // Concatenation preserves each reader's (reader, seq)
                // order — all check_sharded's monotonicity pass needs.
                frontiers.extend(y.frontiers);
            }
            Err(p) => thread_errors.push(format!("mvcc reader panicked: {}", panic_message(p))),
        }
    }
    if let Some(h) = sampler_handle {
        if let Err(p) = h.join() {
            thread_errors.push(format!("sampler panicked: {}", panic_message(p)));
        }
    }
    // All logging threads have exited: flush whatever the fault left.
    for w in &wals {
        let _ = w.lock().finalize();
    }
    // A worker failure is the root cause — report it even when the
    // driver's own verdict was a drain timeout it provoked.
    if !thread_errors.is_empty() {
        return Err(SimError::NonQuiescent(format!(
            "worker thread failure: {}",
            thread_errors.join("; ")
        )));
    }
    let elapsed = run_result?;
    let hb_violations = audit.take_violations();
    // Lock-order cycles from the process-global lockdep graph, filtered
    // to this runtime's namespaces (the graph is shared by every audited
    // lock in the process, including other tests' fixtures).
    let lock_cycles: Vec<mvc_core::LockCycle> = mvc_core::lock::lock_cycles()
        .into_iter()
        .filter(|c| c.within_prefixes(&["whips.", "readpath.", "warehouse.", "shard"]))
        .collect();

    let (group_updates, routed, registry) = routing_state
        .lock()
        .take()
        .expect("integrator published routing state");
    let cluster = Arc::try_unwrap(cluster)
        .map_err(|_| SimError::NonQuiescent("cluster still shared".into()))?
        .into_inner();
    let mut final_stores: Vec<Warehouse> = Vec::with_capacity(shards);
    for st in stores {
        final_stores.push(
            Arc::try_unwrap(st)
                .map_err(|_| SimError::NonQuiescent("warehouse still shared".into()))?
                .into_inner(),
        );
    }
    let mut final_logs: Vec<Vec<CommitLogEntry>> = Vec::with_capacity(shards);
    for lg in shard_logs {
        final_logs.push(
            Arc::try_unwrap(lg)
                .map_err(|_| SimError::NonQuiescent("commit log still shared".into()))?
                .into_inner(),
        );
    }

    // Sharded: replay the observed global-ticket linearization into one
    // store (shard streams are view-disjoint, so ticket order is a legal
    // interleaving — §6.1), splice the global commit log in that order,
    // remap every shard-local read observation into the global watermark
    // space, and retain the per-shard planes for `Oracle::check_sharded`.
    let (warehouse, commit_log, shard_plane) = if sharded {
        let shard_histories: Vec<Vec<mvc_warehouse::CommittedTxn>> =
            final_stores.iter().map(|w| w.history().to_vec()).collect();
        let shard_commit_counts: Vec<u64> =
            final_stores.iter().map(Warehouse::commit_count).collect();
        let inputs: Vec<ShardInput> = final_stores
            .into_iter()
            .zip(&shard_tickets)
            .zip(&shard_initials)
            .map(|((warehouse, tickets), initials)| ShardInput {
                warehouse,
                tickets: tickets.clone(),
                initial_fingerprints: initials.clone(),
            })
            .collect();
        let merge = merge_shards(inputs)
            .map_err(|e| SimError::NonQuiescent(format!("shard merge rejected: {e}")))?;
        let commit_log: Vec<CommitLogEntry> = merge
            .order
            .iter()
            .map(|&(s, i)| final_logs[s][i].clone())
            .collect();
        for (s, obs) in reader_shard_obs.iter().enumerate() {
            read_observations.extend(remap_observations(s, obs, &merge.local_to_global[s]));
        }
        let mut shard_reports = Vec::with_capacity(shards);
        for (s, history) in shard_histories.into_iter().enumerate() {
            shard_reports.push(ShardReport {
                commit_log: std::mem::take(&mut final_logs[s]),
                history,
                initial_fingerprints: shard_initials[s].clone(),
                read_observations: std::mem::take(&mut reader_shard_obs[s]),
                local_to_global: merge.local_to_global[s].clone(),
                commits: shard_commit_counts[s],
            });
        }
        (
            merge.warehouse,
            commit_log,
            Some(ShardPlane {
                assignment: topology.assignment().to_vec(),
                shards: shard_reports,
                frontiers,
            }),
        )
    } else {
        let warehouse = final_stores.pop().expect("one store unsharded");
        let commit_log = final_logs.pop().expect("one log unsharded");
        (warehouse, commit_log, None)
    };

    let metrics = SimMetrics {
        injected,
        commits: commit_log.len() as u64,
        wal_fsyncs: wals.iter().map(|w| w.lock().fsyncs()).sum(),
        ..SimMetrics::default()
    };

    let updates_per_sec = if elapsed.as_secs_f64() > 0.0 {
        injected as f64 / elapsed.as_secs_f64()
    } else {
        f64::INFINITY
    };

    let final_merge_stats = merge_stats.lock().clone();
    let final_commit_stats = commit_stats.lock().clone();

    // Merge per-thread observability shards into one pipeline view.
    let mut pipeline = driver_obs;
    for part in obs_parts.lock().drain(..) {
        pipeline.merge(&part);
    }

    Ok((
        SimReport {
            cluster,
            warehouse,
            registry,
            partitioning,
            group_updates,
            metrics,
            merge_stats: final_merge_stats,
            commit_stats: final_commit_stats,
            guarantees,
            group_views,
            commit_log,
            routed,
            activations: BTreeMap::new(),
            pipeline,
            read_observations,
            initial_fingerprints,
            shard_plane,
        },
        WallClock {
            elapsed,
            updates_per_sec,
            reader_samples,
            in_flight_at_end,
            queue_depths_at_end,
            hb_violations,
            lock_cycles,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use crate::workload::{generate, install_relations, install_views, WorkloadSpec};
    use mvc_relational::tuple;
    use mvc_source::WriteOp;

    #[test]
    fn threaded_end_to_end_complete_managers() {
        let config = ThreadedConfig {
            record_snapshots: true,
            ..ThreadedConfig::default()
        };
        let mut b = ThreadedBuilder::new(config)
            .relation(SourceId(0), "R", Schema::ints(&["a", "b"]))
            .relation(SourceId(1), "S", Schema::ints(&["b", "c"]));
        let v1 = ViewDef::builder("V1")
            .from("R")
            .from("S")
            .join_on("R.b", "S.b")
            .project(["R.a", "R.b", "S.c"])
            .build(b.catalog())
            .unwrap();
        let v2 = ViewDef::builder("V2").from("S").build(b.catalog()).unwrap();
        b = b
            .view(ViewId(1), v1, ManagerKind::Complete)
            .view(ViewId(2), v2, ManagerKind::Complete);
        let mut txns = Vec::new();
        for i in 0..10i64 {
            txns.push(crate::sim::WorkloadTxn {
                source: SourceId(0),
                writes: vec![WriteOp::insert("R", tuple![i, i % 3])],
                global: false,
            });
            txns.push(crate::sim::WorkloadTxn {
                source: SourceId(1),
                writes: vec![WriteOp::insert("S", tuple![i % 3, i])],
                global: false,
            });
        }
        let (report, wall) = b.workload(txns).run().unwrap();
        assert_eq!(report.metrics.injected, 20);
        assert!(wall.elapsed > Duration::ZERO);
        Oracle::new(&report).unwrap().assert_ok();
        // Tentpole: every pipeline stage must have been observed, in ns.
        let p = &report.pipeline;
        assert_eq!(p.unit, "ns");
        assert!(p.src_to_int_wait.count() > 0, "src->int waits recorded");
        assert!(p.int_routing.count() > 0, "routing waits recorded");
        assert!(p.vm_compute.count() > 0, "VM compute times recorded");
        assert!(p.merge_hold.count() > 0, "merge hold times recorded");
        assert!(p.commit_apply.count() > 0, "commit latencies recorded");
        assert!(p.vut_occupancy.count() > 0, "VUT occupancy sampled");
        assert!(p.queue_depth.contains_key("src_to_int"));
        assert!(p.queue_depth.contains_key("mp_to_wh"));
        // The sampler thread gauges every channel class on an interval —
        // "vm_to_qs" proves it ran, since Complete managers never send a
        // query and so no sender ever gauges that channel.
        assert!(p.queue_depth.contains_key("vm_to_qs"));
        assert!(p.queue_depth.contains_key("int_to_vm"));
        assert!(p.queue_depth.contains_key("int_to_mp"));
        // Drain diagnostics on the success path: a clean run ends empty.
        assert_eq!(
            wall.in_flight_at_end, 0,
            "clean run leaves nothing in flight"
        );
        assert!(
            wall.queue_depths_at_end.iter().all(|(_, d)| *d == 0),
            "clean run drains every channel: {:?}",
            wall.queue_depths_at_end
        );
    }

    #[test]
    fn threaded_drain_timeout_reports_in_flight_and_depths() {
        // A 2s commit latency against a 150ms drain budget guarantees the
        // deadline passes with the released WT still uncommitted.
        let config = ThreadedConfig {
            commit_delay: Duration::from_secs(2),
            drain_timeout: Duration::from_millis(150),
            ..ThreadedConfig::default()
        };
        let mut b =
            ThreadedBuilder::new(config).relation(SourceId(0), "R", Schema::ints(&["a", "b"]));
        let v = ViewDef::builder("V").from("R").build(b.catalog()).unwrap();
        b = b.view(ViewId(1), v, ManagerKind::Complete);
        let txns = vec![crate::sim::WorkloadTxn {
            source: SourceId(0),
            writes: vec![WriteOp::insert("R", tuple![1, 1])],
            global: false,
        }];
        let err = match b.workload(txns).run() {
            Ok(_) => panic!("run should have timed out during drain"),
            Err(e) => e,
        };
        match err {
            SimError::DrainTimeout {
                in_flight,
                queue_depths,
            } => {
                assert!(in_flight > 0, "commit still in flight: {in_flight}");
                assert!(
                    queue_depths.iter().any(|(c, _)| c == "src_to_int"),
                    "per-channel depths present: {queue_depths:?}"
                );
                assert!(queue_depths.iter().any(|(c, _)| c.starts_with("vm:")));
                assert!(queue_depths.iter().any(|(c, _)| c.starts_with("mp:")));
            }
            other => panic!("expected DrainTimeout, got {other:?}"),
        }
    }

    #[test]
    fn threaded_partitioned_matches_unpartitioned() {
        // §6.1: merge partitioning must not change warehouse contents —
        // only which merge process holds which view. Run the identical
        // workload through both configurations and compare final states.
        let spec = WorkloadSpec {
            seed: 11,
            relations: 4,
            updates: 60,
            delete_percent: 20,
            ..WorkloadSpec::default()
        };
        let run = |partition: bool| {
            let config = ThreadedConfig {
                partition,
                record_snapshots: true,
                ..ThreadedConfig::default()
            };
            let w = generate(&spec);
            let b = ThreadedBuilder::new(config);
            let b = install_relations(b, spec.relations);
            let (b, ids) = install_views(
                b,
                crate::workload::ViewSuite::DisjointCopies { count: 3 },
                ManagerKind::Complete,
            );
            let (report, _wall) = b.workload(w.txns).run().unwrap();
            Oracle::new(&report).unwrap().assert_ok();
            let contents = report.warehouse.read(&ids);
            (report.partitioning.group_count(), contents)
        };
        let (groups_part, with_partition) = run(true);
        let (groups_flat, without_partition) = run(false);
        assert!(groups_part > groups_flat, "partitioning must split groups");
        assert_eq!(with_partition, without_partition);
    }

    /// Tentpole acceptance: a mixed threaded scenario with K=4 MVCC
    /// reader threads hammering snapshot reads during maintenance. Every
    /// observed cut must certify against the committed state-vector
    /// history (zero violations), per-session watermarks must be
    /// monotone (checked by the certifier), and the reader metrics must
    /// flow through the merged observability shards.
    #[test]
    fn threaded_mvcc_readers_certified() {
        let config = ThreadedConfig {
            readers: 4,
            reader_think_time: Duration::from_micros(20),
            record_snapshots: true,
            ..ThreadedConfig::default()
        };
        let spec = WorkloadSpec {
            seed: 23,
            relations: 4,
            updates: 80,
            delete_percent: 20,
            ..WorkloadSpec::default()
        };
        let w = generate(&spec);
        let b = ThreadedBuilder::new(config);
        let b = install_relations(b, spec.relations);
        let (b, _ids) = install_views(
            b,
            crate::workload::ViewSuite::OverlappingChain { count: 3 },
            ManagerKind::Complete,
        );
        let (report, _wall) = b.workload(w.txns).run().unwrap();
        assert!(
            !report.read_observations.is_empty(),
            "reader fleet never ran"
        );
        let oracle = Oracle::new(&report).unwrap();
        oracle.assert_ok(); // includes check_reads
        let cert = oracle.check_reads().unwrap();
        assert_eq!(cert.observations, report.read_observations.len());
        assert!(cert.sessions >= 1 && cert.sessions <= 4);
        let p = &report.pipeline;
        assert_eq!(
            p.read_staleness.count(),
            report.read_observations.len() as u64
        );
        assert_eq!(p.read_latency.count(), p.read_staleness.count());
        assert_eq!(
            p.to_json()["readers"]["unit"].as_str(),
            Some("ns"),
            "reader metrics tagged with the runtime's unit"
        );
    }

    /// Sharded tentpole acceptance: G≥2 merge workers over S=2 warehouse
    /// shards with an MVCC reader fleet spanning both shards. The run
    /// must produce a shard plane, certify under `check_sharded` (ticket
    /// linearization, per-shard read certification, frontier
    /// monotonicity), match the unsharded final state, and show the
    /// per-group merge workers demonstrably concurrent (overlapping
    /// group-activity spans).
    #[test]
    fn threaded_sharded_end_to_end_certified() {
        let spec = WorkloadSpec {
            seed: 31,
            relations: 4,
            updates: 80,
            delete_percent: 20,
            ..WorkloadSpec::default()
        };
        let run = |shards: usize| {
            let config = ThreadedConfig {
                partition: true,
                shards,
                readers: 3,
                reader_think_time: Duration::from_micros(20),
                ..ThreadedConfig::default()
            };
            let w = generate(&spec);
            let b = ThreadedBuilder::new(config);
            let b = install_relations(b, spec.relations);
            let (b, ids) = install_views(
                b,
                crate::workload::ViewSuite::DisjointCopies { count: 4 },
                ManagerKind::Complete,
            );
            let (report, _wall) = b.workload(w.txns).run().unwrap();
            let contents = report.warehouse.read(&ids);
            (report, contents)
        };
        let (report, sharded_contents) = run(2);
        let plane = report.shard_plane.as_ref().expect("shard plane recorded");
        assert_eq!(plane.shards.len(), 2);
        assert!(
            report.partitioning.group_count() >= 2,
            "disjoint views must partition into 2+ groups"
        );
        // Both shards committed work: group assignment spreads the
        // disjoint groups round-robin, and every group saw updates.
        assert!(plane.shards.iter().all(|s| s.commits > 0));
        assert!(
            !report.read_observations.is_empty(),
            "reader fleet never ran"
        );
        assert!(!plane.frontiers.is_empty(), "cross-shard frontiers taken");
        let oracle = Oracle::new(&report).unwrap();
        oracle.assert_ok(); // includes check_sharded + check_reads
        oracle.check_sharded().unwrap();
        // Concurrency evidence: at least two per-group worker spans
        // overlap in wall-clock (they all stretch over the drain's Flush
        // rounds, so live groups must interleave).
        let spans: Vec<(u64, u64)> = report.pipeline.group_activity.values().copied().collect();
        assert!(spans.len() >= 2, "2+ groups active: {spans:?}");
        let overlapping = spans
            .iter()
            .enumerate()
            .any(|(i, a)| spans[i + 1..].iter().any(|b| a.0 <= b.1 && b.0 <= a.1));
        assert!(overlapping, "group worker spans must overlap: {spans:?}");
        // §6.1: sharding must not change the final warehouse contents.
        let (unsharded, unsharded_contents) = run(1);
        assert!(unsharded.shard_plane.is_none());
        assert_eq!(sharded_contents, unsharded_contents);
    }

    /// The `groups` knob coarsens the relevance partitioning before the
    /// workers spawn, bounding the thread count without changing results.
    #[test]
    fn threaded_groups_cap_coarsens_partitioning() {
        let spec = WorkloadSpec {
            seed: 7,
            relations: 4,
            updates: 40,
            ..WorkloadSpec::default()
        };
        let config = ThreadedConfig {
            partition: true,
            groups: Some(2),
            shards: 2,
            ..ThreadedConfig::default()
        };
        let w = generate(&spec);
        let b = ThreadedBuilder::new(config);
        let b = install_relations(b, spec.relations);
        let (b, _ids) = install_views(
            b,
            crate::workload::ViewSuite::DisjointCopies { count: 4 },
            ManagerKind::Complete,
        );
        let (report, _wall) = b.workload(w.txns).run().unwrap();
        assert!(
            report.partitioning.group_count() <= 2,
            "groups cap must coarsen: got {}",
            report.partitioning.group_count()
        );
        Oracle::new(&report).unwrap().assert_ok();
    }

    #[test]
    fn threaded_strobe_with_query_delay() {
        let config = ThreadedConfig {
            query_delay: Duration::from_micros(300),
            record_snapshots: true,
            ..ThreadedConfig::default()
        };
        let spec = WorkloadSpec {
            seed: 3,
            relations: 3,
            updates: 40,
            ..WorkloadSpec::default()
        };
        let w = generate(&spec);
        let b = ThreadedBuilder::new(config);
        let b = install_relations(b, spec.relations);
        let (b, _ids) = install_views(
            b,
            crate::workload::ViewSuite::OverlappingChain { count: 2 },
            ManagerKind::Strobe,
        );
        let (report, _wall) = b.workload(w.txns).run().unwrap();
        Oracle::new(&report).unwrap().assert_ok();
    }

    /// Under `CommitPolicy::Sequential` every commit ack is chained
    /// through the merge process before the next release, so the audit's
    /// clocks must form a total order over commits — any violation here
    /// is a real synchronization bug. (The concurrent policies legally
    /// commit independent transactions out of order, so this clean-run
    /// guarantee is policy-specific; see `WallClock::hb_violations`.)
    #[cfg(feature = "hb-audit")]
    #[test]
    fn hb_audit_clean_sequential_run_has_no_violations() {
        let config = ThreadedConfig {
            commit_policy: CommitPolicy::Sequential,
            record_snapshots: true,
            ..ThreadedConfig::default()
        };
        let mut b = ThreadedBuilder::new(config)
            .relation(SourceId(0), "R", Schema::ints(&["a", "b"]))
            .relation(SourceId(1), "S", Schema::ints(&["b", "c"]));
        let v1 = ViewDef::builder("V1").from("R").build(b.catalog()).unwrap();
        let v2 = ViewDef::builder("V2").from("S").build(b.catalog()).unwrap();
        b = b
            .view(ViewId(1), v1, ManagerKind::Complete)
            .view(ViewId(2), v2, ManagerKind::Strobe);
        let mut txns = Vec::new();
        for i in 0..12i64 {
            txns.push(crate::sim::WorkloadTxn {
                source: SourceId((i % 2) as u32),
                writes: vec![WriteOp::insert(
                    if i % 2 == 0 { "R" } else { "S" },
                    tuple![i, i],
                )],
                global: false,
            });
        }
        let (report, wall) = b.workload(txns).run().unwrap();
        Oracle::new(&report).unwrap().assert_ok();
        assert!(
            wall.hb_violations.is_empty(),
            "sequential run must audit clean: {:?}",
            wall.hb_violations
        );
    }

    /// A panicking MVCC reader must not leak threads or hang the run:
    /// every worker is joined on the panic path and the fault surfaces
    /// as a typed error naming the panicking thread and its payload.
    #[test]
    fn reader_panic_is_joined_and_reported() {
        let config = ThreadedConfig {
            readers: 3,
            reader_think_time: Duration::from_micros(50),
            pacing: Duration::from_millis(1),
            record_snapshots: true,
            fault: Some(ThreadFault::ReaderPanic { after_reads: 5 }),
            ..ThreadedConfig::default()
        };
        let spec = WorkloadSpec {
            seed: 11,
            relations: 3,
            updates: 20,
            ..WorkloadSpec::default()
        };
        let w = generate(&spec);
        let b = ThreadedBuilder::new(config);
        let b = install_relations(b, spec.relations);
        let (b, _ids) = install_views(
            b,
            crate::workload::ViewSuite::OverlappingChain { count: 2 },
            ManagerKind::Complete,
        );
        let err = match b.workload(w.txns).run() {
            Ok(_) => panic!("run must fail when a reader panics"),
            Err(e) => e,
        };
        let msg = err.to_string();
        assert!(
            msg.contains("mvcc reader panicked"),
            "panic must be attributed to the reader fleet: {msg}"
        );
        assert!(
            msg.contains("injected reader fault"),
            "panic payload must survive the join: {msg}"
        );
    }

    /// Clean mixed readers/writers/GC run under the lockdep audit: the
    /// runtime's declared acquisition order has no cycles, and the audit
    /// demonstrably saw this runtime's locks.
    #[cfg(feature = "lock-audit")]
    #[test]
    fn lock_audit_clean_threaded_run_has_no_cycles() {
        let config = ThreadedConfig {
            readers: 2,
            reader_views: vec![ViewId(1)],
            reader_think_time: Duration::from_micros(20),
            record_snapshots: true,
            ..ThreadedConfig::default()
        };
        let spec = WorkloadSpec {
            seed: 7,
            relations: 4,
            updates: 60,
            delete_percent: 20,
            ..WorkloadSpec::default()
        };
        let w = generate(&spec);
        let b = ThreadedBuilder::new(config);
        let b = install_relations(b, spec.relations);
        let (b, _ids) = install_views(
            b,
            crate::workload::ViewSuite::OverlappingChain { count: 3 },
            ManagerKind::Complete,
        );
        let (report, wall) = b.workload(w.txns).run().unwrap();
        Oracle::new(&report).unwrap().assert_ok();
        assert!(
            wall.lock_cycles.is_empty(),
            "lock-order cycles in a clean run:\n{}",
            wall.lock_cycles
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        let names = mvc_core::lock::audited_lock_names();
        for expect in ["whips.cluster", "whips.warehouse", "readpath.cuts"] {
            assert!(
                names.iter().any(|n| n == expect),
                "audit never registered {expect}; saw {names:?}"
            );
        }
    }

    /// Certified snapshot reads under the full hb audit: every read
    /// happens-after the commit that published its watermark and before
    /// any GC of it, so a Sequential run with a reader fleet must report
    /// zero violations — read-path or otherwise.
    #[cfg(feature = "hb-audit")]
    #[test]
    fn hb_audit_certified_reads_have_no_read_path_violations() {
        let config = ThreadedConfig {
            commit_policy: CommitPolicy::Sequential,
            readers: 3,
            reader_think_time: Duration::from_micros(20),
            record_snapshots: true,
            ..ThreadedConfig::default()
        };
        let spec = WorkloadSpec {
            seed: 41,
            relations: 4,
            updates: 60,
            delete_percent: 10,
            ..WorkloadSpec::default()
        };
        let w = generate(&spec);
        let b = ThreadedBuilder::new(config);
        let b = install_relations(b, spec.relations);
        let (b, _ids) = install_views(
            b,
            crate::workload::ViewSuite::OverlappingChain { count: 3 },
            ManagerKind::Complete,
        );
        let (report, wall) = b.workload(w.txns).run().unwrap();
        let oracle = Oracle::new(&report).unwrap();
        oracle.assert_ok();
        assert!(
            !report.read_observations.is_empty(),
            "reader fleet never ran"
        );
        assert!(
            wall.hb_violations.is_empty(),
            "certified sequential run must audit clean: {:?}",
            wall.hb_violations
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 6,
            ..Default::default()
        })]
        /// Batching must be invisible in certified output: the same
        /// workload run with per-update sends (`batch_max: 1`, the
        /// pre-batching behaviour) and with deep batching produces the
        /// same oracle-certified per-view commit history — for every
        /// view, the sequence of (frontier, fingerprint) pairs over the
        /// commits touching it — and the same final warehouse contents.
        /// (The *global* interleaving of independent transactions is
        /// scheduler-dependent with or without batching, so the per-view
        /// projection is the strongest run-to-run invariant.)
        #[test]
        fn prop_batched_matches_unbatched_history(
            seed in 0u64..10_000,
            updates in 30usize..80,
            delete_percent in 0u8..40,
        ) {
            let spec = WorkloadSpec {
                seed,
                relations: 3,
                updates,
                delete_percent,
                ..WorkloadSpec::default()
            };
            let run = |batch_max: usize| {
                let config = ThreadedConfig {
                    commit_policy: CommitPolicy::Sequential,
                    record_snapshots: true,
                    batch_max,
                    ..ThreadedConfig::default()
                };
                let w = generate(&spec);
                let b = ThreadedBuilder::new(config);
                let b = install_relations(b, spec.relations);
                let (b, ids) = install_views(
                    b,
                    crate::workload::ViewSuite::OverlappingChain { count: 2 },
                    ManagerKind::Complete,
                );
                let (report, _wall) = b.workload(w.txns).run().unwrap();
                Oracle::new(&report).unwrap().assert_ok();
                let mut per_view: BTreeMap<ViewId, Vec<(UpdateId, u64)>> = BTreeMap::new();
                for t in report.warehouse.history() {
                    for v in &t.views {
                        per_view
                            .entry(*v)
                            .or_default()
                            .push((t.frontier, t.fingerprints[v]));
                    }
                }
                let commits = report.warehouse.history().len();
                (per_view, commits, report.warehouse.read(&ids))
            };
            let (unbatched_history, unbatched_commits, unbatched_views) = run(1);
            let (batched_history, batched_commits, batched_views) = run(16);
            proptest::prop_assert_eq!(unbatched_history, batched_history);
            proptest::prop_assert_eq!(unbatched_commits, batched_commits);
            proptest::prop_assert_eq!(unbatched_views, batched_views);
        }
    }

    #[test]
    fn threaded_sequential_strawman() {
        let config = ThreadedConfig {
            sequential: true,
            record_snapshots: true,
            ..ThreadedConfig::default()
        };
        let mut b =
            ThreadedBuilder::new(config).relation(SourceId(0), "R", Schema::ints(&["a", "b"]));
        let v = ViewDef::builder("V").from("R").build(b.catalog()).unwrap();
        b = b.view(ViewId(1), v, ManagerKind::Complete);
        let txns = (0..5i64)
            .map(|i| crate::sim::WorkloadTxn {
                source: SourceId(0),
                writes: vec![WriteOp::insert("R", tuple![i, i])],
                global: false,
            })
            .collect();
        let (report, _w) = b.workload(txns).run().unwrap();
        Oracle::new(&report).unwrap().assert_ok();
        assert!(report.merge_stats[0].max_live_rows <= 1);
    }
}
