//! Threaded runtime: the Figure 1 architecture with one OS thread per
//! process and crossbeam FIFO channels as the arrows.
//!
//! This runtime exists for wall-clock measurements (the §7 bottleneck and
//! scaling studies): the deterministic simulator measures in steps, this
//! one in nanoseconds. Both produce a [`SimReport`], so the consistency
//! oracle validates threaded runs exactly like simulated ones.
//!
//! What a process *does* with a message is not written here: every
//! thread body is `recv` → join the message's hb stamp → call the
//! component's transition in [`crate::transitions`] (the same function
//! the machine calls, which also writes the WAL record) → stamp, count
//! and send the outputs. This module owns what only a multi-threaded
//! host has: the channels and their batching, the in-flight counter and
//! idle flags, hb clocks, wall-clock observability, cut publication and
//! the reader fleets, group-commit fsync, the checkpoint round's message
//! legs, and spawning and joining.
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

#![deny(clippy::too_many_lines)]

use crate::integrator::{Integrator, RoutingSnapshot};
use crate::machine::{assemble, shard_stores, Assembly, SOURCE_CHECKPOINT_INTERVAL};
use crate::metrics::SimMetrics;
use crate::obs::PipelineObs;
use crate::registry::{ManagerKind, ViewRegistry};
use crate::shard::{
    remap_observations, shard_class, ReadFrontier, ShardPlane, ShardReport, ShardTopology,
    ShardWatermarks,
};
use crate::sim::{CommitLogEntry, SimError, SimReport, WorkloadTxn};
use crate::transitions::{
    checkpoint_record, commit, MergeOutput, MergePart, MergeSnapshotPart, VmPart, WalSink,
};
use crossbeam::channel::{unbounded, Receiver, Sender};
use mvc_core::lock::AuditedMutex;
use mvc_core::{CommitPolicy, CommitStats, MergeAlgorithm, MergeStats, TxnSeq, UpdateId, ViewId};
use mvc_durability::{DurabilityConfig, FlushTicket, WalError, WalRecord, WalWriter};
use mvc_readpath::{ReadObservation, ReadSession, VersionedCuts};
use mvc_relational::{RelationName, Schema, ViewDef};
use mvc_source::{SourceCluster, SourceId};
use mvc_viewmgr::{
    answer_query, ActionListDelta, NumberedUpdate, QueryAnswer, QueryRequest, QueryToken, VmEvent,
    VmOutput,
};
use mvc_warehouse::{merge_shards, ShardInput, StoreTxn, Warehouse};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
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
    /// Closed-loop MVCC reader workload (the §1.1 customer inquiry):
    /// this many reader threads hammer multi-view snapshot reads through
    /// `mvc_readpath` sessions during maintenance — never touching the
    /// warehouse lock — and every observed cut is retained for
    /// `Oracle::check_reads` certification.
    pub readers: usize,
    /// Think time between each MVCC reader's queries.
    pub reader_think_time: Duration,
    /// Write-ahead logging + crash injection. The records are written by
    /// the transitions every thread body calls ([`crate::transitions`]),
    /// through this runtime's sink: WAL errors never stop the pipeline
    /// here — use `KillMode::Drop` faults, which model a machine that
    /// keeps computing while nothing more reaches the disk. With
    /// `checkpoint_every > 0` the committer thread coordinates a
    /// checkpoint round every N commits: each merge process and the
    /// integrator reply with their snapshot, anchored in the WAL at
    /// their own point in the log, and the coordinator appends the
    /// self-contained `CheckpointState` assembled from them — so
    /// recovery restores the newest checkpoint and replays only each
    /// component's tail. The round assumes the single zero-delay
    /// committer: `checkpoint_every > 0` with `shards > 1` or a nonzero
    /// `commit_delay` is refused with `SimError::Unsupported` before any
    /// thread is spawned. With `fsync_deadline` set, committers park on
    /// a shared [`FlushTicket`] and one leader fsyncs for the whole
    /// window before any of them acks (group commit).
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
    /// stack and (when durable) WAL stream. Every committer runs the
    /// same commit section; a sharded one additionally draws a ticket
    /// from a shared atomic per commit — fixing one observed
    /// linearization that [`merge_shards`] replays into the global
    /// report after the joins — and publishes the shard's read
    /// watermark. Sharded runs skip the
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
            readers: 0,
            reader_think_time: Duration::from_micros(50),
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
    Updates(Vec<(NumberedUpdate, Instant)>, Stamp),
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
    /// Checkpoint round (see [`CheckpointRound`]): reply with this
    /// group's half of the checkpoint, taken — and anchored in the WAL —
    /// at this point in the group's own FIFO.
    Checkpoint(Sender<MergeSnapshotPart>),
    Flush,
    Stop,
}

enum IntMsg {
    /// A driver-sealed batch of committed source updates, FIFO within and
    /// across batches (sealed and sent under the batcher lock).
    Updates(Vec<SrcItem>),
    AnswerFor(ViewId, QueryToken, QueryAnswer, Stamp),
    /// Checkpoint round: reply with the routing history and counters,
    /// anchored at this point in the integrator's FIFO.
    Checkpoint(Sender<RoutingSnapshot>),
    Stop,
}

enum QsMsg {
    Query(ViewId, QueryToken, Box<QueryRequest>, Stamp),
    Stop,
}

/// A released warehouse transaction on its way to a committer: merge
/// group, payload, release instant, and the releasing thread's stamp.
type Release = (usize, StoreTxn, Instant, Stamp);

enum WhMsg {
    Txn(Release),
    Stop,
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
    int_tx: Sender<IntMsg>,
}

impl SrcBatcher {
    fn new(max: usize, deadline: Duration, int_tx: Sender<IntMsg>) -> Self {
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

/// This runtime's WAL sink: the log streams a thread writes to, shared
/// with every other logging thread. Unlike the machine's sink, append
/// errors are deliberately dropped: a WAL crash point must never stop
/// the in-memory pipeline, only the log — every `KillMode` degenerates
/// to `Drop` here, modelling a machine whose disk died while the process
/// kept computing. Recovery then replays the pre-crash prefix. Sharded
/// runs split the log into one stream per shard; the integrator's sink
/// holds them all, so every shard's log carries the full source feed and
/// replays standalone, and every other thread's sink holds the one
/// stream of its shard (none when the run is not durable).
#[derive(Clone, Default)]
struct WalStreams(Vec<Arc<AuditedMutex<WalWriter>>>);

impl WalSink for &WalStreams {
    fn attached(&self) -> bool {
        !self.0.is_empty()
    }
    fn append(&mut self, rec: &WalRecord) -> Result<(), WalError> {
        for wal in &self.0 {
            let _ = wal.lock().append(rec);
        }
        Ok(())
    }
    fn next_index(&self) -> u64 {
        self.0.first().map_or(0, |wal| wal.lock().next_index())
    }
}

impl WalStreams {
    /// Open the run's log: one stream, or one per shard (path suffix
    /// `.shard{i}`) when sharded; none when the run is not durable.
    fn open(
        config: &ThreadedConfig,
        registry: &ViewRegistry,
        shards: usize,
    ) -> Result<Self, SimError> {
        let Some(d) = &config.durability else {
            return Ok(WalStreams::default());
        };
        let mut wals = Vec::with_capacity(shards);
        if shards > 1 {
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
        if registry.iter().any(|e| e.kind.needs_delivery_replay()) {
            for wal in &wals {
                wal.lock().set_compaction(false);
            }
        }
        Ok(WalStreams(wals))
    }

    /// The stream of one shard (none when the run is not durable).
    fn of_shard(&self, shard: usize) -> WalStreams {
        WalStreams(self.0.get(shard).cloned().into_iter().collect())
    }

    fn flush(&self) -> Result<(), WalError> {
        self.0.iter().try_for_each(|wal| wal.lock().flush())
    }

    /// All logging threads have exited: flush whatever a fault left, and
    /// report the fsyncs issued.
    fn finalize(&self) -> u64 {
        let mut fsyncs = 0;
        for wal in &self.0 {
            let mut wal = wal.lock();
            let _ = wal.finalize();
            fsyncs += wal.fsyncs();
        }
        fsyncs
    }
}

/// The arrows of Figure 1 as channel senders, with the in-flight counter
/// every send bumps and the hb auditor every stamped send consults.
/// Shared by every thread: a thread's loop ends on its `Stop` message,
/// never on disconnect, so holding a sender to one's own inbox is
/// harmless.
struct Net {
    int_tx: Sender<IntMsg>,
    qs_tx: Sender<QsMsg>,
    /// One release channel per committer: merge group `g` releases to
    /// `wh_txs[topology.shard_of(g)]` (always index 0 unsharded).
    wh_txs: Vec<Sender<WhMsg>>,
    vm_txs: BTreeMap<ViewId, Sender<VmMsg>>,
    mp_txs: Vec<Sender<MpMsg>>,
    flight: Flight,
    /// Idle (per view manager) and quiescent (per merge process) flags,
    /// published by their threads after every wakeup and read — unlocked
    /// — by the driver's quiescence test.
    vm_idle: BTreeMap<ViewId, AtomicBool>,
    mp_quiescent: Vec<AtomicBool>,
    /// Happens-before auditor (no-op unless `hb-audit`). Thread pids:
    /// driver 0, integrator 1, VM 10+view, MP 1000+group, MVCC reader
    /// 2000+k; the query server and the committers pass stamps through
    /// without a clock of their own (they are stateless relays for
    /// ordering purposes).
    audit: HbAudit,
}

/// The receiving ends [`Net::wire`] hands to the threads it feeds.
struct Inboxes {
    int: Receiver<IntMsg>,
    qs: Receiver<QsMsg>,
    wh: Vec<Receiver<WhMsg>>,
    /// In ascending view order, like the assembly's managers.
    vm: Vec<Receiver<VmMsg>>,
    mp: Vec<Receiver<MpMsg>>,
}

impl Net {
    /// One unbounded FIFO per arrow.
    fn wire(views: impl Iterator<Item = ViewId>, groups: usize, shards: usize) -> (Net, Inboxes) {
        let (int_tx, int) = unbounded();
        let (qs_tx, qs) = unbounded();
        let (wh_txs, wh) = (0..shards).map(|_| unbounded()).unzip();
        let (mp_txs, mp) = (0..groups).map(|_| unbounded()).unzip();
        let (mut vm_txs, mut vm_idle) = (BTreeMap::new(), BTreeMap::new());
        let mut vm = Vec::new();
        for v in views {
            let (tx, rx) = unbounded();
            vm_txs.insert(v, tx);
            vm_idle.insert(v, AtomicBool::new(true));
            vm.push(rx);
        }
        let net = Net {
            int_tx,
            qs_tx,
            wh_txs,
            vm_txs,
            mp_txs,
            flight: Flight::new(),
            vm_idle,
            mp_quiescent: (0..groups).map(|_| AtomicBool::new(true)).collect(),
            audit: HbAudit::new(),
        };
        let inboxes = Inboxes {
            int,
            qs,
            wh,
            vm,
            mp,
        };
        (net, inboxes)
    }

    /// Count a message in flight, send it, and gauge its channel class.
    fn send<T>(&self, tx: &Sender<T>, msg: T, class: &'static str, obs: &mut PipelineObs) {
        self.flight.up();
        let _ = tx.send(msg);
        obs.note_depth(class, tx.len() as u64);
    }

    /// Nothing in flight and every component idle.
    fn quiescent(&self) -> bool {
        self.flight.zero()
            // SeqCst: both flag families pair with the SeqCst stores in
            // the VM/MP loops, so this composite test is conservative.
            && self.vm_idle.values().all(|f| f.load(Ordering::SeqCst))
            && self.mp_quiescent.iter().all(|f| f.load(Ordering::SeqCst))
    }

    /// Per-channel backlog: the diagnostics a `DrainTimeout` carries.
    fn queue_depths(&self) -> Vec<(String, usize)> {
        let mut d = vec![
            ("src_to_int".to_string(), self.int_tx.len()),
            ("vm_to_qs".to_string(), self.qs_tx.len()),
            (
                "mp_to_wh".to_string(),
                self.wh_txs.iter().map(Sender::len).sum(),
            ),
        ];
        for (v, tx) in &self.vm_txs {
            d.push((format!("vm:{v}"), tx.len()));
        }
        for (g, tx) in self.mp_txs.iter().enumerate() {
            d.push((format!("mp:{g}"), tx.len()));
        }
        d
    }

    fn drain_timeout(&self) -> SimError {
        SimError::DrainTimeout {
            in_flight: self.flight.count(),
            queue_depths: self.queue_depths(),
        }
    }

    fn stop_all(&self) {
        let _ = self.int_tx.send(IntMsg::Stop);
        let _ = self.qs_tx.send(QsMsg::Stop);
        for tx in &self.wh_txs {
            let _ = tx.send(WhMsg::Stop);
        }
        for tx in self.vm_txs.values() {
            let _ = tx.send(VmMsg::Stop);
        }
        for tx in &self.mp_txs {
            let _ = tx.send(MpMsg::Stop);
        }
    }
}

/// What one store lock serializes: a shard's views, the commit log
/// aligned 1:1 with their history, and (sharded) the global ticket drawn
/// for each commit — the observed linearization `merge_shards` replays
/// after the joins.
struct ShardStore {
    warehouse: Warehouse,
    commit_log: Vec<CommitLogEntry>,
    tickets: Vec<u64>,
}

/// One shard of the commit plane (the whole plane when unsharded): the
/// store its commit scheduler serializes, with the shard's WAL stream
/// and cut stack. Shared by the shard's committer, that committer's
/// delay workers, and the readers.
struct Shard {
    index: usize,
    store: AuditedMutex<ShardStore>,
    /// The shard's view set, ascending — what its readers query.
    views: Vec<ViewId>,
    /// Pre-any-commit fingerprints of those views.
    initials: BTreeMap<ViewId, u64>,
    /// MVCC version store, seeded at watermark 0 with the shard's views;
    /// every commit's changed views are published under the same lock
    /// that serialized it.
    cuts: VersionedCuts,
    wal: WalStreams,
    /// Group commit: the window, and the ticket concurrent committers of
    /// this stream park on — they enroll after appending and one leader
    /// fsyncs for everyone in the window.
    flush: Option<(Duration, FlushTicket)>,
    plane: Option<TicketPlane>,
    net: Arc<Net>,
}

/// What sharded committers and frontier readers coordinate through: the
/// global ticket counter every committer draws from under its shard
/// lock, and the cross-shard read-watermark registers.
#[derive(Clone)]
struct TicketPlane {
    tickets: Arc<AtomicU64>,
    watermarks: Arc<ShardWatermarks>,
}

/// One store per shard; shard 0 owns every view when unsharded. Sharded
/// stores never record snapshots: the post-run ticket merge reconstructs
/// the global history with full state vectors and the snapshot column
/// deliberately empty.
fn open_shards(
    config: &ThreadedConfig,
    integrator: &Integrator,
    topology: &ShardTopology,
    wals: &WalStreams,
    net: &Arc<Net>,
) -> Vec<Arc<Shard>> {
    let sharded = topology.shards() > 1;
    let record = config.record_snapshots && !sharded;
    let plane = sharded.then(|| TicketPlane {
        tickets: Arc::new(AtomicU64::new(0)),
        watermarks: Arc::new(ShardWatermarks::new(topology.shards())),
    });
    let window = config.durability.as_ref().and_then(|d| d.fsync_deadline);
    let stores = shard_stores(
        integrator.registry(),
        integrator.partitioning(),
        topology,
        record,
    );
    let open = |(index, warehouse): (usize, Warehouse)| {
        let views: Vec<ViewId> = warehouse.view_ids().collect();
        let initials = warehouse.initial_fingerprints();
        let cuts = VersionedCuts::new();
        cuts.seed(0, warehouse.read(&views));
        let store = ShardStore {
            warehouse,
            commit_log: Vec::new(),
            tickets: Vec::new(),
        };
        Arc::new(Shard {
            index,
            // Lock classes: the classic name when unsharded, `shard{i}.*`
            // per shard otherwise — both literals sit on their
            // construction line for the static lock lint.
            store: if sharded {
                AuditedMutex::new(shard_class(index, "shard{i}.warehouse"), store)
            } else {
                AuditedMutex::new("whips.warehouse", store)
            },
            views,
            initials,
            cuts,
            wal: wals.of_shard(index),
            flush: window.map(|w| (w, FlushTicket::new())),
            plane: plane.clone(),
            net: net.clone(),
        })
    };
    stores.into_iter().enumerate().map(open).collect()
}

/// Combinations this runtime cannot honour are refused before any thread
/// exists, never silently degraded.
fn refuse_unsupported(config: &ThreadedConfig, shards: usize) -> Result<(), SimError> {
    let every = config.durability.as_ref().map_or(0, |d| d.checkpoint_every);
    // A checkpoint round's request/reply legs assume one committer
    // classifying a commit log that holds still meanwhile.
    let clash = if shards > 1 {
        format!("shards = {shards}")
    } else if !config.commit_delay.is_zero() {
        format!("commit_delay = {:?}", config.commit_delay)
    } else {
        return Ok(());
    };
    if every == 0 {
        return Ok(());
    }
    Err(SimError::Unsupported(format!(
        "durability.checkpoint_every = {every} with {clash}: threaded checkpoint rounds need \
         the single zero-delay committer"
    )))
}

/// Builder mirroring [`crate::sim::SimBuilder`] for the threaded runtime.
pub struct ThreadedBuilder {
    config: ThreadedConfig,
    cluster: SourceCluster,
    registry: ViewRegistry,
    workload: Vec<WorkloadTxn>,
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

    pub fn workload(mut self, txns: Vec<WorkloadTxn>) -> Self {
        self.workload.extend(txns);
        self
    }

    /// Run to quiescence; returns the report plus wall-clock stats.
    pub fn run(self) -> Result<(SimReport, WallClock), SimError> {
        run_threaded(self)
    }
}

/// What the threads hand back through their `JoinHandle`s: each fills
/// the fields it has, and the driver sums them after the joins.
#[derive(Default)]
struct Yield {
    /// Every thread records latencies into its own `PipelineObs` (no
    /// lock on the hot path).
    obs: Vec<PipelineObs>,
    /// One entry per merge thread, in group (= spawn = join) order.
    merge_stats: Vec<MergeStats>,
    commit_stats: Vec<CommitStats>,
    integrator: Option<Box<Integrator>>,
    /// Unsharded MVCC readers: certified directly against the global
    /// history.
    read_observations: Vec<ReadObservation>,
    /// Sharded MVCC readers: per shard, in shard-local sessions and
    /// watermarks, plus one frontier per iteration for
    /// `Oracle::check_sharded`.
    shard_observations: Vec<Vec<ReadObservation>>,
    frontiers: Vec<ReadFrontier>,
}

impl Yield {
    fn of(obs: PipelineObs) -> Self {
        Yield {
            obs: vec![obs],
            ..Yield::default()
        }
    }

    fn absorb(&mut self, mut y: Yield) {
        self.obs.append(&mut y.obs);
        self.merge_stats.append(&mut y.merge_stats);
        self.commit_stats.append(&mut y.commit_stats);
        self.integrator = self.integrator.take().or(y.integrator);
        self.read_observations.append(&mut y.read_observations);
        let shards = self
            .shard_observations
            .len()
            .max(y.shard_observations.len());
        self.shard_observations.resize_with(shards, Vec::new);
        for (mine, theirs) in self.shard_observations.iter_mut().zip(y.shard_observations) {
            mine.extend(theirs);
        }
        // Concatenation preserves each reader's (reader, seq) order —
        // all check_sharded's monotonicity pass needs.
        self.frontiers.append(&mut y.frontiers);
    }
}

/// A spawned thread and the name its failure is reported under.
type Worker = (&'static str, JoinHandle<Result<Yield, String>>);

/// Join every spawned thread. A failed or panicked thread surfaces as an
/// error string naming it.
fn join_workers(workers: Vec<Worker>) -> (Yield, Vec<String>) {
    let (mut total, mut errors) = (Yield::default(), Vec::new());
    for (what, h) in workers {
        match h.join() {
            Ok(Ok(y)) => total.absorb(y),
            Ok(Err(e)) => errors.push(format!("{what} error: {e}")),
            Err(p) => errors.push(format!("{what} panicked: {}", panic_message(p))),
        }
    }
    (total, errors)
}

fn run_threaded(b: ThreadedBuilder) -> Result<(SimReport, WallClock), SimError> {
    // Take the builder apart instead of cloning pieces out of it.
    let ThreadedBuilder {
        config,
        cluster,
        registry,
        workload,
    } = b;
    // Every fallible step of deployment set-up (view-manager
    // construction, refusals, opening the log) happens here, BEFORE any
    // worker exists: a `?` taken after the spawns start would leak every
    // already-spawned thread (nothing would ever send them Stop).
    // All-or-nothing construction keeps the unconditional shutdown below
    // the only teardown path.
    let assembly = assemble(
        &registry,
        config.partition,
        config.groups,
        config.algorithm,
        config.commit_policy,
        config.tuple_relevance,
        config.record_snapshots,
    )?;
    // §6.1 scaled out: shards own disjoint subsets of merge groups (and
    // therefore disjoint view sets), each with its own commit plane.
    let topology = ShardTopology::new(assembly.mps.len(), config.shards);
    refuse_unsupported(&config, topology.shards())?;
    let wals = WalStreams::open(&config, &registry, topology.shards())?;
    let partitioning = assembly.integrator.partitioning().clone();
    // The global fingerprint vector (the shards' disjoint union) comes
    // from the assembled all-views store, which this runtime uses for
    // nothing else.
    let initial_fingerprints = assembly.warehouse.initial_fingerprints();
    let guarantees = assembly.guarantees.clone();
    let group_views = assembly.group_views.clone();

    let views = assembly.vms.keys().copied();
    let (net, inboxes) = Net::wire(views, assembly.mps.len(), topology.shards());
    let net = Arc::new(net);
    let shards = open_shards(&config, &assembly.integrator, &topology, &wals, &net);
    let cluster = Arc::new(AuditedMutex::new("whips.cluster", cluster));
    // Driver-side batcher for the src→int channel. Sequential mode needs
    // per-update sends: the driver waits for quiescence between
    // transactions, and a buffered update would never drain.
    let batch_max = if config.sequential {
        1
    } else {
        config.batch_max
    };
    let batcher = SrcBatcher::new(batch_max, config.batch_deadline, net.int_tx.clone());
    let crew = Crew {
        config: &config,
        topology: &topology,
        shards: &shards,
        wals: &wals,
        net: net.clone(),
        cluster: cluster.clone(),
        batcher: Arc::new(batcher),
        stop: Arc::new(AtomicBool::new(false)),
    };
    let workers = crew.spawn(assembly, inboxes);

    // --- Driver (this thread) ---
    let injected = workload.len() as u64;
    let mut pipeline = PipelineObs::new("ns");
    // Every exit of the inject + drain phase — success, drain timeout,
    // source error — falls through to the unconditional shutdown below.
    let run_result = crew.drive(workload, &mut pipeline);
    // Drain diagnostics regardless of outcome — the same counters a
    // DrainTimeout error carries; a clean run must show 0 / all-empty.
    let in_flight_at_end = net.flight.count();
    let queue_depths_at_end = net.queue_depths();

    // --- Shutdown (unconditional: every spawned thread is joined on
    // every path; a timed-out run still tears down cleanly, it just
    // waits for in-flight work to finish behind the Stop messages) ---
    // SeqCst: plain stop flag for the reader and sampler loops.
    crew.stop.store(true, Ordering::SeqCst);
    net.stop_all();
    drop(crew);
    let (joined, errors) = join_workers(workers);
    let wal_fsyncs = wals.finalize();
    // A worker failure is the root cause — report it even when the
    // driver's own verdict was a drain timeout it provoked.
    if !errors.is_empty() {
        return Err(SimError::NonQuiescent(format!(
            "worker thread failure: {}",
            errors.join("; ")
        )));
    }
    joined.obs.iter().for_each(|part| pipeline.merge(part));
    let elapsed = run_result?;
    let hb_violations = net.audit.take_violations();
    // Lock-order cycles from the process-global lockdep graph, filtered
    // to this runtime's namespaces (the graph is shared by every audited
    // lock in the process, including other tests' fixtures).
    let lock_cycles: Vec<mvc_core::LockCycle> = mvc_core::lock::lock_cycles()
        .into_iter()
        .filter(|c| c.within_prefixes(&["whips.", "readpath.", "shard"]))
        .collect();

    let integrator = joined.integrator.expect("integrator joined cleanly");
    let cluster = Arc::try_unwrap(cluster)
        .map_err(|_| SimError::NonQuiescent("cluster still shared".into()))?
        .into_inner();
    let mut read_observations = joined.read_observations;
    let (warehouse, commit_log, shard_plane) = stitch_history(
        shards,
        &topology,
        joined.shard_observations,
        joined.frontiers,
        &mut read_observations,
    )?;
    let updates_per_sec = if elapsed.as_secs_f64() > 0.0 {
        injected as f64 / elapsed.as_secs_f64()
    } else {
        f64::INFINITY
    };
    let metrics = SimMetrics {
        injected,
        commits: commit_log.len() as u64,
        wal_fsyncs,
        ..SimMetrics::default()
    };
    Ok((
        SimReport {
            cluster,
            warehouse,
            routed: integrator.routed(),
            registry: integrator.registry().clone(),
            partitioning,
            group_updates: integrator.group_updates,
            metrics,
            merge_stats: joined.merge_stats,
            commit_stats: joined.commit_stats,
            guarantees,
            group_views,
            commit_log,
            activations: BTreeMap::new(),
            pipeline,
            read_observations,
            initial_fingerprints,
            shard_plane,
        },
        WallClock {
            elapsed,
            updates_per_sec,
            in_flight_at_end,
            queue_depths_at_end,
            hb_violations,
            lock_cycles,
        },
    ))
}

/// Take the stores back from their locks and produce the run's one
/// history. Unsharded that is the single store as is. Sharded: replay
/// the observed global-ticket linearization into one store (shard
/// streams are view-disjoint, so ticket order is a legal interleaving —
/// §6.1), splice the global commit log in that order, remap every
/// shard-local read observation into the global watermark space
/// (appended to `read_observations`), and retain the per-shard planes
/// for `Oracle::check_sharded`.
fn stitch_history(
    shards: Vec<Arc<Shard>>,
    topology: &ShardTopology,
    mut shard_observations: Vec<Vec<ReadObservation>>,
    frontiers: Vec<ReadFrontier>,
    read_observations: &mut Vec<ReadObservation>,
) -> Result<(Warehouse, Vec<CommitLogEntry>, Option<ShardPlane>), SimError> {
    let mut stores = Vec::with_capacity(shards.len());
    let mut initials = Vec::with_capacity(shards.len());
    shard_observations.resize_with(shards.len(), Vec::new);
    for shard in shards {
        let shard = Arc::try_unwrap(shard)
            .map_err(|_| SimError::NonQuiescent("warehouse still shared".into()))?;
        stores.push(shard.store.into_inner());
        initials.push(shard.initials);
    }
    if stores.len() == 1 {
        let store = stores.pop().expect("one store unsharded");
        return Ok((store.warehouse, store.commit_log, None));
    }
    let histories: Vec<Vec<mvc_warehouse::CommittedTxn>> = stores
        .iter()
        .map(|st| st.warehouse.history().to_vec())
        .collect();
    let mut logs = Vec::with_capacity(stores.len());
    let mut inputs = Vec::with_capacity(stores.len());
    for (st, initial) in stores.into_iter().zip(&initials) {
        logs.push(st.commit_log);
        inputs.push(ShardInput {
            warehouse: st.warehouse,
            tickets: st.tickets,
            initial_fingerprints: initial.clone(),
        });
    }
    let merge = merge_shards(inputs)
        .map_err(|e| SimError::NonQuiescent(format!("shard merge rejected: {e}")))?;
    let commit_log = merge
        .order
        .iter()
        .map(|&(s, i)| logs[s][i].clone())
        .collect();
    let mut reports = Vec::with_capacity(logs.len());
    for (s, (history, commit_log)) in histories.into_iter().zip(logs).enumerate() {
        let local_to_global = merge.local_to_global[s].clone();
        let observations = std::mem::take(&mut shard_observations[s]);
        read_observations.extend(remap_observations(s, &observations, &local_to_global));
        reports.push(ShardReport {
            commits: history.len() as u64,
            commit_log,
            history,
            initial_fingerprints: std::mem::take(&mut initials[s]),
            read_observations: observations,
            local_to_global,
        });
    }
    let plane = ShardPlane {
        assignment: topology.assignment().to_vec(),
        shards: reports,
        frontiers,
    };
    Ok((merge.warehouse, commit_log, Some(plane)))
}

/// What every spawned thread's context — and the driver's — is cut from.
struct Crew<'a> {
    config: &'a ThreadedConfig,
    topology: &'a ShardTopology,
    shards: &'a [Arc<Shard>],
    wals: &'a WalStreams,
    net: Arc<Net>,
    cluster: Arc<AuditedMutex<SourceCluster>>,
    batcher: Arc<SrcBatcher>,
    /// Stops the reader and sampler loops.
    stop: Arc<AtomicBool>,
}

impl Crew<'_> {
    /// Spawn one thread per Figure 1 process, plus the readers and the
    /// queue-depth sampler. Infallible: nothing here may leave a spawned
    /// thread behind.
    fn spawn(&self, mut assembly: Assembly, inboxes: Inboxes) -> Vec<Worker> {
        let mut workers: Vec<Worker> = Vec::new();
        // Checkpoint rounds are coordinated by the single zero-delay
        // committer; `refuse_unsupported` rejected everything else.
        let durability = self.config.durability.as_ref();
        let every = durability.map_or(0, |d| d.checkpoint_every);
        if every > 0 {
            assembly.keep_checkpoint_state();
        }
        let partitioning = assembly.integrator.partitioning().clone();
        for ((id, part), rx) in assembly.vms.into_iter().zip(inboxes.vm) {
            let group = partitioning.group_of_view(id).unwrap_or(0);
            let shard = self.shard_of(group);
            let run = move || vm_thread(id, part, &rx, group, &shard);
            workers.push(("view manager", std::thread::spawn(run)));
        }
        // Shared epoch for the per-group activity spans recorded by the
        // MP threads: overlapping spans across groups demonstrate
        // concurrency.
        let epoch = Instant::now();
        for (mut part, rx) in assembly.mps.into_iter().zip(inboxes.mp) {
            // Paint transitions feed both the WAL and the HB audit.
            if self.wals.attached() || cfg!(feature = "hb-audit") {
                part.mp.enable_paint_events();
            }
            let shard = self.shard_of(part.group());
            let run = move || mp_thread(part, &rx, &shard, epoch);
            workers.push(("merge process", std::thread::spawn(run)));
        }
        {
            let (cluster, batcher) = (self.cluster.clone(), self.batcher.clone());
            let (net, rx, delay) = (self.net.clone(), inboxes.qs, self.config.query_delay);
            let run = move || qs_thread(&rx, &cluster, &batcher, &net, delay);
            workers.push(("query server", std::thread::spawn(run)));
        }
        for (shard, rx) in self.shards.iter().cloned().zip(inboxes.wh) {
            let round = (every > 0).then_some(CheckpointRound { every, since: 0 });
            let delay = self.config.commit_delay;
            let run = move || committer_thread(&shard, &rx, delay, round);
            workers.push(("committer", std::thread::spawn(run)));
        }
        {
            // The assembled integrator carries the (possibly coarsened)
            // partitioning everything above was cut from — NOT a
            // re-derived one, or a `groups` cap would desynchronize
            // routing from the per-group threads and the shard topology.
            let (part, rx) = (assembly.integrator, inboxes.int);
            let (net, wals) = (self.net.clone(), self.wals.clone());
            let run = move || int_thread(part, &rx, &net, &wals);
            workers.push(("integrator", std::thread::spawn(run)));
        }
        self.spawn_readers(&mut workers);
        workers
    }

    /// The shard owning merge group `group`: where the group's threads
    /// log and its releases commit.
    fn shard_of(&self, group: usize) -> Arc<Shard> {
        self.shards[self.topology.shard_of(group)].clone()
    }

    /// The MVCC reader fleet and the queue-depth sampler — everything
    /// that runs until `stop`.
    fn spawn_readers(&self, workers: &mut Vec<Worker>) {
        let config = self.config;
        for k in 0..config.readers {
            let pace = ReaderPace {
                k,
                think: config.reader_think_time,
                stop: self.stop.clone(),
                // Only the first reader carries an injected fault: one
                // panicking thread among healthy peers is the
                // interesting shutdown case.
                fault: config.fault.clone().filter(|_| k == 0),
            };
            let run: Box<dyn FnOnce() -> Yield + Send> = match &self.shards[0].plane {
                Some(plane) => {
                    let sessions = self
                        .shards
                        .iter()
                        .map(|sh| (sh.cuts.open_session(), sh.views.clone()))
                        .collect();
                    let watermarks = plane.watermarks.clone();
                    Box::new(move || frontier_reader(&pace, sessions, &watermarks))
                }
                None => {
                    let session = self.shards[0].cuts.open_session();
                    let views = self.shards[0].views.clone();
                    let audit = self.net.audit.clone();
                    Box::new(move || mvcc_reader(&pace, session, &views, &audit))
                }
            };
            workers.push(("mvcc reader", std::thread::spawn(move || Ok(run()))));
        }
        let (net, stop) = (self.net.clone(), self.stop.clone());
        let run = move || Ok(depth_sampler(&net, &stop));
        workers.push(("sampler", std::thread::spawn(run)));
    }

    /// Inject the workload at the sources, then drain to quiescence.
    fn drive(
        &self,
        workload: Vec<WorkloadTxn>,
        obs: &mut PipelineObs,
    ) -> Result<Duration, SimError> {
        let (config, net) = (self.config, &self.net);
        let started = Instant::now();
        let mut hbc = HbClock::new(0);
        for t in workload {
            if config.sequential {
                // wait for pipeline quiescence before the next transaction
                let deadline = Instant::now() + config.drain_timeout;
                while !net.quiescent() {
                    if Instant::now() > deadline {
                        return Err(net.drain_timeout());
                    }
                    std::thread::yield_now();
                }
            }
            {
                let mut c = self.cluster.lock();
                let res = if t.global {
                    c.execute_global(t.source, t.writes)
                } else {
                    c.execute(t.source, t.writes)
                }
                .map_err(SimError::Source)?;
                // push under the lock so answers computed later cannot
                // overtake this update in the integrator queue; the
                // batcher seals full/stale batches inside the push
                net.flight.up();
                self.batcher.push(Arc::new(res), net.audit.stamp(&mut hbc));
                obs.note_depth("src_to_int", net.int_tx.len() as u64);
            }
            if !config.pacing.is_zero() {
                std::thread::sleep(config.pacing);
            }
        }
        // The workload is done: seal the tail batch, or the drain below
        // would wait on updates no push will ever flush.
        self.batcher.flush();

        let deadline = Instant::now() + config.drain_timeout;
        let mut flushed_all = false;
        loop {
            if net.quiescent() {
                if flushed_all {
                    return Ok(started.elapsed());
                }
                // one full flush round even when everything looks idle
                for tx in net.vm_txs.values() {
                    net.flight.up();
                    let _ = tx.send(VmMsg::Flush);
                }
                for tx in &net.mp_txs {
                    net.flight.up();
                    let _ = tx.send(MpMsg::Flush);
                }
                flushed_all = true;
            } else if net.flight.zero() {
                // stalled with nothing in flight: nudge batching components
                for (v, idle) in &net.vm_idle {
                    // SeqCst: matches the store in the VM loop.
                    if !idle.load(Ordering::SeqCst) {
                        net.flight.up();
                        let _ = net.vm_txs[v].send(VmMsg::Flush);
                    }
                }
                for tx in &net.mp_txs {
                    net.flight.up();
                    let _ = tx.send(MpMsg::Flush);
                }
            }
            if Instant::now() > deadline {
                return Err(net.drain_timeout());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// View-manager thread: recv → join the hb stamp → `VmPart::deliver` →
/// stamp, count and send what the manager emitted.
fn vm_thread(
    id: ViewId,
    mut part: VmPart,
    rx: &Receiver<VmMsg>,
    group: usize,
    shard: &Shard,
) -> Result<Yield, String> {
    let net = &shard.net;
    let mut obs = PipelineObs::new("ns");
    let mut hbc = HbClock::new(10 + id.0);
    let mut sink = &shard.wal;
    while let Ok(msg) = rx.recv() {
        // One wakeup may carry a whole batch of updates; events are
        // handled in arrival order either way.
        let events = match msg {
            VmMsg::Updates(batch, stamp) => {
                net.audit.recv(&mut hbc, &stamp);
                let arrived = batch.into_iter().map(|(u, sent)| {
                    obs.int_routing.record(sent.elapsed().as_nanos() as u64);
                    VmEvent::Update(u)
                });
                arrived.collect()
            }
            VmMsg::Answer(token, answer, stamp) => {
                net.audit.recv(&mut hbc, &stamp);
                vec![VmEvent::Answer { token, answer }]
            }
            VmMsg::Flush => vec![VmEvent::Flush],
            VmMsg::Stop => break,
        };
        for event in events {
            let t0 = Instant::now();
            let outs = part.deliver(event, &mut sink).map_err(|e| e.to_string())?;
            obs.vm_compute.record(t0.elapsed().as_nanos() as u64);
            for o in outs {
                let stamp = net.audit.stamp(&mut hbc);
                match o {
                    VmOutput::Action(al) => {
                        let msg = MpMsg::Action(al, stamp);
                        net.send(&net.mp_txs[group], msg, "vm_to_mp", &mut obs);
                    }
                    VmOutput::Query { token, request } => {
                        let msg = QsMsg::Query(id, token, Box::new(request), stamp);
                        net.send(&net.qs_tx, msg, "vm_to_qs", &mut obs);
                    }
                }
            }
        }
        // SeqCst: the idle flag must not be observed set before the
        // sends above are visible — quiescence reads it unlocked.
        net.vm_idle[&id].store(part.vm.is_idle(), Ordering::SeqCst);
        net.flight.down();
    }
    Ok(Yield::of(obs))
}

/// Merge-process thread: recv → join the hb stamp → the `MergePart`
/// transition(s) of the message → audit the paints, then stamp, count
/// and send the releases to this group's committer.
fn mp_thread(
    mut part: MergePart,
    rx: &Receiver<MpMsg>,
    shard: &Shard,
    epoch: Instant,
) -> Result<Yield, String> {
    let (g, net) = (part.group(), &shard.net);
    let mut obs = PipelineObs::new("ns");
    let mut hbc = HbClock::new(1000 + g as u32);
    let mut sink = &shard.wal;
    // AL arrival times, keyed like the simulator's merge-hold map:
    // (view, last covered update) identifies the list inside a WT.
    let mut al_recv: BTreeMap<(ViewId, UpdateId), Instant> = BTreeMap::new();
    while let Ok(msg) = rx.recv() {
        // Span stretches over every wakeup (including the drain's Flush
        // rounds), so concurrently-live groups overlap.
        obs.note_group_span(g, epoch.elapsed().as_nanos() as u64);
        let mut out = MergeOutput::default();
        match msg {
            MpMsg::Rels(rels, stamp) => {
                net.audit.recv(&mut hbc, &stamp);
                for (i, rel, sent) in rels {
                    obs.int_routing.record(sent.elapsed().as_nanos() as u64);
                    out.absorb(part.on_rel(i, rel, &mut sink).map_err(|e| e.to_string())?);
                }
            }
            MpMsg::Action(al, stamp) => {
                net.audit.recv(&mut hbc, &stamp);
                al_recv.insert((al.view, al.last), Instant::now());
                out = part.on_action(al, &mut sink).map_err(|e| e.to_string())?;
            }
            MpMsg::Committed(seq, stamp) => {
                net.audit.recv(&mut hbc, &stamp);
                out = part
                    .on_committed(seq, &mut sink)
                    .map_err(|e| e.to_string())?;
            }
            MpMsg::Checkpoint(reply) => {
                let _ = reply.send(part.snapshot(&sink));
            }
            MpMsg::Flush => out = part.flush(&mut sink).map_err(|e| e.to_string())?,
            MpMsg::Stop => break,
        }
        // Paint transitions are checked against this thread's clock,
        // which already joined the stamp of the message that caused them.
        net.audit.on_paints(g, &out.paints, &hbc);
        for t in out.released {
            for a in &t.actions {
                if let Some(arrived) = al_recv.remove(&(a.view, a.last)) {
                    obs.merge_hold.record(arrived.elapsed().as_nanos() as u64);
                }
            }
            let msg = WhMsg::Txn((g, t, Instant::now(), net.audit.stamp(&mut hbc)));
            net.send(&net.wh_txs[shard.index], msg, "mp_to_wh", &mut obs);
        }
        obs.vut_occupancy.record(part.mp.live_rows() as u64);
        // SeqCst: pairs with the quiescence check — the flag must not
        // appear set before the releases above are visible.
        net.mp_quiescent[g].store(part.mp.is_quiescent(), Ordering::SeqCst);
        net.flight.down();
    }
    Ok(Yield {
        merge_stats: vec![part.mp.stats()],
        commit_stats: vec![part.mp.commit_stats()],
        ..Yield::of(obs)
    })
}

/// Integrator thread: recv → join the hb stamps → `Integrator::route`
/// per update → seal one message per touched merge group and per
/// relevant view, however many updates the wakeup carried.
fn int_thread(
    mut part: Integrator,
    rx: &Receiver<IntMsg>,
    net: &Net,
    wals: &WalStreams,
) -> Result<Yield, String> {
    let mut obs = PipelineObs::new("ns");
    let mut hbc = HbClock::new(1);
    let mut sink = wals;
    while let Ok(msg) = rx.recv() {
        match msg {
            IntMsg::Updates(batch) => {
                let n = batch.len() as i64;
                let mut mp_out: Vec<Vec<(UpdateId, BTreeSet<ViewId>, Instant)>> =
                    vec![Vec::new(); net.mp_txs.len()];
                let mut vm_out: BTreeMap<ViewId, Vec<(NumberedUpdate, Instant)>> = BTreeMap::new();
                for (u, sent, stamp) in batch {
                    net.audit.recv(&mut hbc, &stamp);
                    obs.src_to_int_wait.record(sent.elapsed().as_nanos() as u64);
                    for r in part.route(u, &mut sink).map_err(|e| e.to_string())? {
                        for v in &r.rel {
                            // seal: fanning the routed update out into
                            // each relevant view's batch clones the Arc
                            // handle, not the payload
                            let item = (r.numbered.clone(), Instant::now());
                            vm_out.entry(*v).or_default().push(item);
                        }
                        mp_out[r.group].push((r.numbered.id, r.rel, Instant::now()));
                    }
                }
                // REL batches go out before any update batch: a VM can
                // only produce an action for an update after its merge
                // group already holds the REL entry, exactly as with
                // per-update sends.
                for (g, rels) in mp_out.into_iter().enumerate() {
                    if !rels.is_empty() {
                        let msg = MpMsg::Rels(rels, net.audit.stamp(&mut hbc));
                        net.send(&net.mp_txs[g], msg, "int_to_mp", &mut obs);
                    }
                }
                for (v, ups) in vm_out {
                    let msg = VmMsg::Updates(ups, net.audit.stamp(&mut hbc));
                    net.send(&net.vm_txs[&v], msg, "int_to_vm", &mut obs);
                }
                net.flight.down_n(n);
            }
            IntMsg::AnswerFor(v, token, answer, stamp) => {
                // Forwarded on the *same* FIFO as this view's updates so
                // that the end-to-end order is preserved.
                net.audit.recv(&mut hbc, &stamp);
                net.flight.up();
                let _ =
                    net.vm_txs[&v].send(VmMsg::Answer(token, answer, net.audit.stamp(&mut hbc)));
                net.flight.down();
            }
            IntMsg::Checkpoint(reply) => {
                let _ = reply.send(part.snapshot(&sink));
                net.flight.down();
            }
            IntMsg::Stop => break,
        }
    }
    Ok(Yield {
        integrator: Some(Box::new(part)),
        ..Yield::of(obs)
    })
}

/// Query-server thread. Queries are served concurrently (real sources
/// answer many clients at once): with a configured delay, each query
/// gets its own short-lived worker so service time does not serialize
/// the whole pipeline.
fn qs_thread(
    rx: &Receiver<QsMsg>,
    cluster: &Arc<AuditedMutex<SourceCluster>>,
    batcher: &Arc<SrcBatcher>,
    net: &Arc<Net>,
    delay: Duration,
) -> Result<Yield, String> {
    let mut workers = Vec::new();
    while let Ok(QsMsg::Query(v, token, request, stamp)) = rx.recv() {
        let (cluster, batcher, net) = (cluster.clone(), batcher.clone(), net.clone());
        let serve = move || -> Result<(), String> {
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            // Lock serializes with commits: the answer state is
            // consistent with the updates already reported.
            let answer = {
                let c = cluster.lock();
                answer_query(&c, &request).map_err(|e| e.to_string())?
            };
            // Seal any buffered updates before reporting the answer:
            // every update ≤ the answer state was pushed under the
            // cluster lock before the answer was computed, so flushing
            // here puts them ahead of the AnswerFor in the FIFO
            // integrator queue — the ordering invariant batching must
            // not break.
            batcher.flush();
            net.flight.up();
            // The query's own stamp rides through: the answer
            // happens-after the question, and the concurrent workers own
            // no clock.
            let _ = net.int_tx.send(IntMsg::AnswerFor(v, token, answer, stamp));
            net.flight.down();
            Ok(())
        };
        if delay.is_zero() {
            serve()?;
        } else {
            workers.push(std::thread::spawn(serve));
        }
    }
    for w in workers {
        w.join()
            .map_err(|_| "query worker panicked".to_string())??;
    }
    Ok(Yield::default())
}

/// A commit acknowledgement owed to a merge group, stamped by the audit.
type Ack = (usize, TxnSeq, Stamp);

impl Shard {
    /// The commit critical section, for a run of released transactions
    /// under ONE store-lock acquisition: `transitions::commit` (WAL
    /// `TxnCommitted` order = history order), then per transaction the
    /// hb commit check and the cut publication — both under the lock, so
    /// the audit sees commits, and readers see watermarks, in history
    /// order. Returns the acks in that order.
    fn commit_run(&self, run: &[Release], obs: &mut PipelineObs) -> Result<Vec<Ack>, String> {
        let mut acks = Vec::with_capacity(run.len());
        {
            let mut store = self.store.lock();
            let st = &mut *store;
            let base = st.warehouse.commit_count();
            if let Some(plane) = &self.plane {
                for _ in run {
                    // SeqCst: the global ticket is drawn under the shard
                    // lock in apply order; the merge validates per-shard
                    // monotonicity, so the draw must not reorder around
                    // the applies it linearizes.
                    st.tickets
                        .push(plane.tickets.fetch_add(1, Ordering::SeqCst));
                }
            }
            let txns = run.iter().map(|(g, txn, _, _)| (*g, txn));
            commit(&mut st.warehouse, &mut st.commit_log, txns, &mut &self.wal)
                .map_err(|e| e.to_string())?;
            for (i, (g, txn, released, stamp)) in run.iter().enumerate() {
                // WT released by the merge process -> applied at the
                // warehouse (same span the simulator measures in steps).
                obs.commit_apply
                    .record(released.elapsed().as_nanos() as u64);
                // The returned clock stamps the ack. (Groups are global,
                // so the commit-order audit runs sharded too.)
                let ack = self.net.audit.on_commit(*g, txn.seq, &txn.views, stamp);
                self.publish(&st.warehouse, base + i as u64 + 1, txn, &ack);
                acks.push((*g, txn.seq, ack));
            }
        }
        // Group commit: every TxnCommitted appended above is durable
        // before any ack leaves this committer. The leader holds the
        // flush window open so records from concurrently-arriving runs
        // (other delay workers of this stream) share one fsync.
        if let Some((window, ticket)) = &self.flush {
            let _ = ticket.wait_flush(*window, || self.wal.flush());
        }
        Ok(acks)
    }

    /// Publish a commit's new view versions at its (shard-local)
    /// watermark. Unsharded the cut is stamped with the ack clock: every
    /// certified read of it happens-after the commit that produced it,
    /// and any GC the publish triggered must happen-after every read of
    /// the pruned versions. Sharded runs skip those read-path audit legs
    /// (see `ThreadedConfig::shards`) and bump the watermark register
    /// last: any register value a reader snapshots is already resolvable
    /// in this shard's cut stack.
    fn publish(&self, warehouse: &Warehouse, watermark: u64, txn: &StoreTxn, ack: &Stamp) {
        let changed: Vec<ViewId> = txn.views.iter().copied().collect();
        let versions = warehouse.read(&changed);
        match &self.plane {
            Some(plane) => {
                self.cuts.publish(watermark, versions);
                plane.watermarks.publish(self.index, watermark);
            }
            None => {
                let audit = &self.net.audit;
                let stamp = audit.on_publish(watermark, ack);
                let receipt = self.cuts.publish_stamped(watermark, versions, stamp);
                audit.on_gc(&receipt.gc, ack);
            }
        }
    }

    /// Ship the acks. Each is counted in flight before the `Txn` message
    /// it answers is counted out, so the counter never dips to zero in
    /// between.
    fn ack(&self, acks: Vec<Ack>, obs: &mut PipelineObs) {
        let net = &self.net;
        for (g, seq, stamp) in acks {
            let msg = MpMsg::Committed(seq, stamp);
            net.send(&net.mp_txs[g], msg, "wh_to_mp", obs);
            net.flight.down();
        }
    }
}

/// Threaded checkpointing: every `every` commits the (single,
/// zero-delay) committer asks every merge process, then the integrator,
/// for their half of a checkpoint through their own FIFOs — so each half
/// is taken, and anchored in the WAL, at a well-defined point of its
/// component's input — and appends the assembled record.
struct CheckpointRound {
    every: u64,
    /// Commits applied since the last round.
    since: u64,
}

impl CheckpointRound {
    /// Called between a run's commit and its acks: the consumed `Txn`
    /// messages keep `flight` nonzero for the whole round, so the driver
    /// cannot observe quiescence and Stop the processes mid-round.
    fn after_commits(&mut self, n: u64, c: &Shard) -> Result<(), String> {
        self.since += n;
        if self.since < self.every {
            return Ok(());
        }
        self.since = 0;
        let net = &c.net;
        let mut waiting = Vec::with_capacity(net.mp_txs.len());
        for tx in &net.mp_txs {
            let (reply, part) = unbounded();
            net.flight.up();
            let _ = tx.send(MpMsg::Checkpoint(reply));
            waiting.push(part);
        }
        let mut merges = Vec::with_capacity(waiting.len());
        for part in waiting {
            let part = part.recv();
            merges.push(part.map_err(|_| "merge process exited mid-checkpoint".to_string())?);
        }
        let (reply, routing) = unbounded();
        net.flight.up();
        let _ = net.int_tx.send(IntMsg::Checkpoint(reply));
        let routing = routing.recv();
        let routing = routing.map_err(|_| "integrator exited mid-checkpoint".to_string())?;
        // This thread is the only committer, so the commit log has not
        // moved since the snapshots above.
        let record = {
            let store = c.store.lock();
            checkpoint_record(routing, merges, &store.warehouse, &store.commit_log)
        };
        // The append also compacts dead segments when the log is rotated
        // with compaction enabled.
        let _ = (&c.wal).append(&record);
        Ok(())
    }
}

/// Committer thread. Zero commit latency: drain whatever releases are
/// already queued behind the first and commit the whole run at once
/// (group commit — only the locking is amortized; log, history and ack
/// order match the per-transaction path). With a configured latency,
/// each commit is a run of one on its own short-lived worker (a real
/// DBMS overlaps independent transactions); ordering of *dependent*
/// transactions is the merge process's commit scheduler's responsibility
/// (§4.3) — it never has two dependent transactions in flight under the
/// ordered policies, so concurrent workers are safe.
fn committer_thread(
    c: &Arc<Shard>,
    rx: &Receiver<WhMsg>,
    delay: Duration,
    mut round: Option<CheckpointRound>,
) -> Result<Yield, String> {
    let mut obs = PipelineObs::new("ns");
    let mut workers = Vec::new();
    let mut stopped = false;
    while !stopped {
        let Ok(WhMsg::Txn(first)) = rx.recv() else {
            break;
        };
        if !delay.is_zero() {
            let c = c.clone();
            workers.push(std::thread::spawn(move || {
                let mut obs = PipelineObs::new("ns");
                std::thread::sleep(delay);
                let acks = c.commit_run(&[first], &mut obs)?;
                c.ack(acks, &mut obs);
                Ok::<_, String>(obs)
            }));
            continue;
        }
        let mut run = vec![first];
        while let Ok(next) = rx.try_recv() {
            match next {
                WhMsg::Txn(t) => run.push(t),
                WhMsg::Stop => {
                    stopped = true;
                    break;
                }
            }
        }
        let acks = c.commit_run(&run, &mut obs)?;
        if let Some(round) = &mut round {
            round.after_commits(run.len() as u64, c)?;
        }
        c.ack(acks, &mut obs);
    }
    for w in workers {
        let worker_obs = w
            .join()
            .map_err(|_| "commit worker panicked".to_string())??;
        obs.merge(&worker_obs);
    }
    Ok(Yield::of(obs))
}

/// What every MVCC reader thread of the closed-loop fleet shares: its
/// index, think time, stop flag and (first reader only) injected fault.
struct ReaderPace {
    k: usize,
    think: Duration,
    stop: Arc<AtomicBool>,
    fault: Option<ThreadFault>,
}

impl ReaderPace {
    fn running(&self) -> bool {
        // SeqCst: plain stop flag; strongest order costs nothing here.
        !self.stop.load(Ordering::SeqCst)
    }

    /// End of one iteration: fire the injected fault when due, then
    /// think.
    fn after_read(&self, reads_done: u64) {
        if let Some(ThreadFault::ReaderPanic { after_reads }) = self.fault {
            if reads_done >= after_reads {
                panic!("injected reader fault after {reads_done} reads");
            }
        }
        if !self.think.is_zero() {
            std::thread::sleep(self.think);
        }
    }
}

/// Unsharded MVCC reader: hammers multi-view snapshot reads through the
/// version store — never taking the store lock, so readers and commits
/// only contend on the (short) version-store mutex. Each iteration
/// alternates reading the newest cut with a re-read at the session's own
/// watermark (exercising the monotonic-session path). Observations are
/// retained and certified after the run.
fn mvcc_reader(
    pace: &ReaderPace,
    mut session: ReadSession,
    views: &[ViewId],
    audit: &HbAudit,
) -> Yield {
    let mut obs = PipelineObs::new("ns");
    let mut hbc = HbClock::new(2000 + pace.k as u32);
    let mut observations = Vec::new();
    let mut at_head = true;
    while pace.running() {
        let begun = Instant::now();
        // The pre-read clock snapshot pins the session in the version
        // store: any GC while this pin is live is licensed by (joins)
        // it, proving the reclamation happens-after everything this
        // reader has seen.
        let pin = audit.reader_stamp(&mut hbc);
        let result = if at_head {
            session.read_latest_stamped(views, pin)
        } else {
            session.read_at_stamped(session.last_seen(), views, pin)
        };
        at_head = !at_head;
        let out = result.expect("chains seeded at build, target ≤ head");
        // Certified read: must happen-after the commit that published
        // its watermark. The returned post-join clock licenses any GC
        // this read's pin advance triggered.
        let seen = &out.observation;
        let post = audit.on_read(
            seen.session,
            seen.cut.watermark,
            &out.publish_stamp,
            &mut hbc,
        );
        audit.on_gc(&out.gc, &post);
        obs.read_latency.record(begun.elapsed().as_nanos() as u64);
        obs.note_read(out.staleness, out.chain_len, out.gc_lag);
        observations.push(out.observation);
        pace.after_read(observations.len() as u64);
    }
    Yield {
        read_observations: observations,
        ..Yield::of(obs)
    }
}

/// Sharded MVCC reader: one session per shard plus the
/// watermark-register protocol. Snapshot every shard's register FIRST,
/// then read each shard at its entry. Registers are monotone (fetch_max)
/// and writers publish only after the cut exists under the shard lock,
/// so every target is published and ≥ this reader's previous target —
/// the combined cut is a certifiable cross-shard snapshot and per-reader
/// frontiers are pointwise monotone. The read-path hb audit is skipped
/// here (see `ThreadedConfig::shards`); certification comes from
/// `Oracle::check_sharded` + remapped `check_reads`.
fn frontier_reader(
    pace: &ReaderPace,
    mut sessions: Vec<(ReadSession, Vec<ViewId>)>,
    watermarks: &ShardWatermarks,
) -> Yield {
    let mut obs = PipelineObs::new("ns");
    let mut shard_observations = vec![Vec::new(); sessions.len()];
    let mut frontiers = Vec::new();
    while pace.running() {
        let begun = Instant::now();
        let frontier = watermarks.snapshot();
        frontiers.push(ReadFrontier {
            reader: pace.k,
            seq: frontiers.len() as u64,
            watermarks: frontier.clone(),
        });
        for (s, (session, views)) in sessions.iter_mut().enumerate() {
            let out = session
                .read_at(frontier[s], views)
                .expect("frontier ≤ shard head by publication order");
            obs.note_read(out.staleness, out.chain_len, out.gc_lag);
            shard_observations[s].push(out.observation);
        }
        obs.read_latency.record(begun.elapsed().as_nanos() as u64);
        pace.after_read(frontiers.len() as u64);
    }
    Yield {
        shard_observations,
        frontiers,
        ..Yield::of(obs)
    }
}

/// Pause between queue-depth samples.
const DEPTH_SAMPLE_INTERVAL: Duration = Duration::from_micros(500);

/// Queue-depth sampler. Senders gauge a channel only at send time, so
/// between bursts the recorded depths never decay; this thread samples
/// every channel on a fixed interval so the gauges also see idle-time
/// drain-down.
fn depth_sampler(net: &Net, stop: &AtomicBool) -> Yield {
    let mut obs = PipelineObs::new("ns");
    // SeqCst: plain stop flag; strongest order costs nothing here.
    while !stop.load(Ordering::SeqCst) {
        obs.note_depth("src_to_int", net.int_tx.len() as u64);
        obs.note_depth("vm_to_qs", net.qs_tx.len() as u64);
        for tx in &net.wh_txs {
            obs.note_depth("mp_to_wh", tx.len() as u64);
        }
        for tx in net.vm_txs.values() {
            obs.note_depth("int_to_vm", tx.len() as u64);
        }
        for tx in &net.mp_txs {
            obs.note_depth("int_to_mp", tx.len() as u64);
        }
        std::thread::sleep(DEPTH_SAMPLE_INTERVAL);
    }
    Yield::of(obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use crate::workload::{generate, install_relations, install_views, ViewSuite, WorkloadSpec};
    use mvc_relational::tuple;
    use mvc_source::WriteOp;

    /// Deploy `suite` under `kind` and run `spec`'s workload through it.
    fn run_suite(
        config: ThreadedConfig,
        spec: &WorkloadSpec,
        suite: ViewSuite,
        kind: ManagerKind,
    ) -> Result<(SimReport, WallClock, Vec<ViewId>), SimError> {
        let w = generate(spec);
        let b = install_relations(ThreadedBuilder::new(config), spec.relations);
        let (b, ids) = install_views(b, suite, kind);
        b.workload(w.txns).run().map(|(r, wall)| (r, wall, ids))
    }

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
            let (report, _wall, ids) = run_suite(
                config,
                &spec,
                ViewSuite::DisjointCopies { count: 3 },
                ManagerKind::Complete,
            )
            .unwrap();
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
        let (report, _wall, _ids) = run_suite(
            config,
            &spec,
            ViewSuite::OverlappingChain { count: 3 },
            ManagerKind::Complete,
        )
        .unwrap();
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
            let (report, _wall, ids) = run_suite(
                config,
                &spec,
                ViewSuite::DisjointCopies { count: 4 },
                ManagerKind::Complete,
            )
            .unwrap();
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
        let (report, _wall, _ids) = run_suite(
            config,
            &spec,
            ViewSuite::DisjointCopies { count: 4 },
            ManagerKind::Complete,
        )
        .unwrap();
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
        let (report, _wall, _ids) = run_suite(
            config,
            &spec,
            ViewSuite::OverlappingChain { count: 2 },
            ManagerKind::Strobe,
        )
        .unwrap();
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
        let err = match run_suite(
            config,
            &spec,
            ViewSuite::OverlappingChain { count: 2 },
            ManagerKind::Complete,
        ) {
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
        let (report, wall, _ids) = run_suite(
            config,
            &spec,
            ViewSuite::OverlappingChain { count: 3 },
            ManagerKind::Complete,
        )
        .unwrap();
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
        let (report, wall, _ids) = run_suite(
            config,
            &spec,
            ViewSuite::OverlappingChain { count: 3 },
            ManagerKind::Complete,
        )
        .unwrap();
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
                let (report, _wall, ids) =
                    run_suite(config, &spec, ViewSuite::OverlappingChain { count: 2 }, ManagerKind::Complete).unwrap();
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

    /// Every combination this runtime refuses is refused with the typed
    /// `Unsupported` error, naming both settings, before a thread is
    /// spawned or a log file created. A checkpoint round assumes the
    /// single zero-delay committer; these used to run with the cadence
    /// silently zeroed.
    #[test]
    fn threaded_refuses_unsupported_combinations() {
        let dir = std::env::temp_dir().join(format!("mvc-thr-refusals-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = WorkloadSpec {
            relations: 2,
            updates: 4,
            ..WorkloadSpec::default()
        };
        // (shards, commit_delay, the setting the message must name)
        let cases = [
            (2, Duration::ZERO, "shards = 2"),
            (1, Duration::from_micros(50), "commit_delay = 50"),
        ];
        for (shards, commit_delay, clash) in cases {
            let config = ThreadedConfig {
                partition: true,
                shards,
                commit_delay,
                durability: Some(DurabilityConfig::new(dir.join("w.wal")).with_checkpoint_every(4)),
                ..ThreadedConfig::default()
            };
            let suite = ViewSuite::DisjointCopies { count: 2 };
            match run_suite(config, &spec, suite, ManagerKind::Complete) {
                Err(SimError::Unsupported(why)) => assert!(
                    why.contains("checkpoint_every = 4") && why.contains(clash),
                    "refusal must name both settings: {why}"
                ),
                other => panic!("{clash}: expected Unsupported, got {:?}", other.map(|_| ())),
            }
            let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
            assert!(left.is_empty(), "{clash}: refused after opening {left:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
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
