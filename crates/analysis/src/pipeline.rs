//! The explorer-owned scheduler over the Figure 1 state machine
//! (`mvc_whips::machine::Machine`): the VM → merge-process →
//! warehouse-applier pipeline with named choice points.
//!
//! The machine is the one the deterministic simulator runs — same
//! message kinds, same per-channel FIFOs, same component transitions,
//! same WAL records — but here the scheduler is data: [`Pipeline::enabled`]
//! lists the choices open in the current state and [`Pipeline::step`]
//! executes one. Replaying the same [`Choice`] sequence from a fresh build
//! reproduces the same history bit for bit, which is what makes violating
//! schedules serializable as regression tests.
//!
//! Two deliberate differences from the simulator's scheduler: there is no
//! random lottery (the explorer owns all nondeterminism), and the
//! drain-phase flush nudges are *not* choice points — when no choice is
//! enabled but the system is not yet quiescent, a deterministic flush
//! round runs (every VM, then every merge process, in id order). Flush
//! timing is a liveness heuristic of the driver, not a protocol event;
//! the message deliveries a flush provokes are still explored as choices.
//! The explorer also adds nothing to the machine's transitions: no
//! step-unit bookkeeping, no read path, and a journal without paint or
//! checkpoint records.

#![deny(clippy::too_many_lines)]

use crate::schedule::{Choice, ScheduleId};
use mvc_core::{CommitPolicy, MergeAlgorithm, ViewId};
use mvc_durability::DurabilityConfig;
use mvc_relational::{Catalog, RelationName, Schema, ViewDef};
use mvc_source::{SourceCluster, SourceId};
use mvc_whips::machine::{assemble, Machine, SOURCE_CHECKPOINT_INTERVAL};
use mvc_whips::sim::{SimError, SimReport, WorkloadTxn};
use mvc_whips::workload::Deployment;
use mvc_whips::{ManagerKind, ViewRegistry};
use std::fmt;

/// Explorer-facing pipeline errors. Protocol errors (merge, view
/// manager, warehouse, source) are bugs of the *system under test* and
/// surface with the schedule prefix that triggered them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    Build(String),
    /// A component rejected an event while executing a choice.
    Step {
        choice: String,
        detail: String,
    },
    /// The requested choice is not enabled in the current state (stale or
    /// foreign [`ScheduleId`]).
    NotEnabled {
        position: usize,
        choice: String,
    },
    /// Flush rounds stopped making progress before quiescence.
    Stalled(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Build(d) => write!(f, "pipeline build failed: {d}"),
            PipelineError::Step { choice, detail } => {
                write!(f, "choice {choice} failed: {detail}")
            }
            PipelineError::NotEnabled { position, choice } => {
                write!(f, "choice {choice} at position {position} is not enabled")
            }
            PipelineError::Stalled(d) => write!(f, "pipeline stalled before quiescence: {d}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// A deliberately broken, test-only warehouse-applier policy. Used to
/// prove the explorer + oracle actually find protocol violations (and
/// that a violating schedule replays deterministically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Breakage {
    /// Buffer released transactions and commit each full buffer in
    /// reverse order — the §4.3 hazard the commit scheduler exists to
    /// prevent.
    ReorderCommits { depth: usize },
}

/// Static configuration of the explored pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    pub commit_policy: CommitPolicy,
    /// Force one engine for every merge group (`None` = §6.3 weakest-level
    /// selection from the managers).
    pub algorithm: Option<MergeAlgorithm>,
    /// Partition views into per-relation-set merge groups (§6.1).
    pub partition: bool,
    /// Tuple-level irrelevance tests at the integrator (paper ref \[7\]).
    pub tuple_relevance: bool,
    /// Warehouse snapshot recording (the oracle needs it only for
    /// state-matching levels; explorer runs keep it on by default so
    /// every consistency level is certifiable).
    pub record_snapshots: bool,
    /// Test-only broken applier; `None` = faithful pipeline.
    pub breakage: Option<Breakage>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            commit_policy: CommitPolicy::DependencyAware,
            algorithm: None,
            partition: false,
            tuple_relevance: true,
            record_snapshots: true,
            breakage: None,
        }
    }
}

/// Factory for [`Pipeline`] instances: holds the immutable experiment
/// description (relations, views, workload, config) and builds a fresh
/// state machine per replay — component state is not cloneable (view
/// managers are trait objects), so determinism comes from rebuilding.
#[derive(Clone)]
pub struct PipelineBuilder {
    config: PipelineConfig,
    /// The sources at `ss_0`: relations declared, nothing executed.
    cluster: SourceCluster,
    registry: ViewRegistry,
    workload: Vec<WorkloadTxn>,
}

impl PipelineBuilder {
    pub fn new(config: PipelineConfig) -> Self {
        PipelineBuilder {
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
            .expect("relation definition");
        self
    }

    pub fn view(mut self, id: ViewId, def: ViewDef, kind: ManagerKind) -> Self {
        self.registry.add(id, def, kind);
        self
    }

    pub fn workload(mut self, txns: Vec<WorkloadTxn>) -> Self {
        self.workload.extend(txns);
        self
    }

    pub fn catalog(&self) -> &Catalog {
        self.cluster.catalog()
    }

    pub fn registry(&self) -> &ViewRegistry {
        &self.registry
    }

    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Build a fresh pipeline at the initial state `ss_0`.
    pub fn build(&self) -> Result<Pipeline, PipelineError> {
        let c = &self.config;
        let assembly = assemble(
            &self.registry,
            c.partition,
            None,
            c.algorithm,
            c.commit_policy,
            c.tuple_relevance,
            c.record_snapshots,
        )
        .map_err(|e| PipelineError::Build(e.to_string()))?;
        let mut cluster = self.cluster.clone();
        self.registry.index_sources(&mut cluster);
        Ok(Pipeline {
            machine: Machine::new(
                cluster,
                assembly,
                self.workload.clone(),
                c.breakage.map(|Breakage::ReorderCommits { depth }| depth),
                (),
            ),
            flushed_all: false,
            flush_rounds: 0,
        })
    }

    /// Build a fresh pipeline that journals every protocol event into a
    /// write-ahead log, so any record prefix of the resulting log can be
    /// crash-recovered by [`mvc_whips::recover_and_run`]. The journal
    /// carries no checkpoints: `checkpoint_every` is the simulator's
    /// cadence, not the explorer's.
    pub fn build_durable(&self, dcfg: &DurabilityConfig) -> Result<Pipeline, PipelineError> {
        let mut pipe = self.build()?;
        pipe.machine
            .attach_wal(dcfg)
            .map_err(|e| PipelineError::Build(format!("wal: {e}")))?;
        Ok(pipe)
    }

    /// Deterministically replay a serialized schedule to its report.
    /// Every choice must be enabled where the schedule claims it is —
    /// a diverging replay means the schedule belongs to a different
    /// builder and fails with [`PipelineError::NotEnabled`].
    pub fn replay(&self, schedule: &ScheduleId) -> Result<SimReport, PipelineError> {
        Self::run_schedule(self.build()?, schedule)
    }

    /// [`PipelineBuilder::replay`] on a WAL-journaling pipeline: the
    /// report and the on-disk log of the schedule's full run.
    pub fn replay_durable(
        &self,
        schedule: &ScheduleId,
        dcfg: &DurabilityConfig,
    ) -> Result<SimReport, PipelineError> {
        Self::run_schedule(self.build_durable(dcfg)?, schedule)
    }

    fn run_schedule(mut pipe: Pipeline, schedule: &ScheduleId) -> Result<SimReport, PipelineError> {
        pipe.replay(&schedule.0)?;
        let rest = pipe.ready()?;
        if !rest.is_empty() {
            return Err(PipelineError::Stalled(format!(
                "schedule ended with {} choices still enabled",
                rest.len()
            )));
        }
        pipe.finish()
    }
}

/// The explorer's Deployment hook: the shared workload installers
/// (`install_relations`, `install_views`) work on pipeline builders too.
impl Deployment for PipelineBuilder {
    fn add_relation(self, source: SourceId, name: String, schema: Schema) -> Self {
        self.relation(source, name, schema)
    }
    fn add_view(self, id: ViewId, def: ViewDef, kind: ManagerKind) -> Self {
        self.view(id, def, kind)
    }
    fn view_catalog(&self) -> &Catalog {
        self.catalog()
    }
}

/// One explorable pipeline instance.
pub struct Pipeline {
    machine: Machine<()>,
    /// Every component received at least one end-of-run flush (the drain
    /// contract batching/convergent parts rely on).
    flushed_all: bool,
    flush_rounds: usize,
}

/// Hard cap on drain flush rounds — matches the simulator's bound; a
/// pipeline needing more is stuck, not draining.
const MAX_FLUSH_ROUNDS: usize = 10_000;

impl Pipeline {
    /// Scheduler choices enabled in the current state, in canonical
    /// order: inject first, then nonempty channels in `ChanId` order.
    pub fn enabled(&self) -> Vec<Choice> {
        self.machine.enabled()
    }

    /// All messages consumed, all components idle.
    pub fn quiescent(&self) -> bool {
        self.machine.pending_workload() == 0 && self.machine.quiescent()
    }

    /// Enabled choices after applying any deterministic drain rounds.
    /// Empty result means the schedule is complete (quiescent and fully
    /// flushed) — [`Pipeline::finish`] may be called.
    pub fn ready(&mut self) -> Result<Vec<Choice>, PipelineError> {
        loop {
            let enabled = self.enabled();
            if !enabled.is_empty() {
                return Ok(enabled);
            }
            if self.quiescent() && self.flushed_all {
                return Ok(Vec::new());
            }
            self.flush_round()?;
        }
    }

    /// One deterministic drain round: flush every view manager (id
    /// order), then every merge group, then any breakage buffer (the
    /// chaos buffer commits its reversed remainder at drain time). Not a
    /// choice point — see the module docs.
    fn flush_round(&mut self) -> Result<(), PipelineError> {
        self.flush_rounds += 1;
        if self.flush_rounds > MAX_FLUSH_ROUNDS {
            return Err(PipelineError::Stalled(format!(
                "{MAX_FLUSH_ROUNDS} flush rounds without quiescence"
            )));
        }
        let m = &mut self.machine;
        let views: Vec<ViewId> = m.views().collect();
        for v in views {
            m.flush_vm(v)
                .map_err(|e| step_err(format!("flush({v})"), e))?;
        }
        for g in 0..m.groups() {
            m.flush_merge(g)
                .map_err(|e| step_err(format!("flush(MP{g})"), e))?;
        }
        m.flush_reorder_buffer()
            .map_err(|e| step_err("flush(applier)", e))?;
        self.flushed_all = true;
        Ok(())
    }

    /// Step through `choices`, each of which must be enabled (after any
    /// drain rounds) where it is taken.
    pub(crate) fn replay(&mut self, choices: &[Choice]) -> Result<(), PipelineError> {
        for (position, &choice) in choices.iter().enumerate() {
            if !self.ready()?.contains(&choice) {
                return Err(PipelineError::NotEnabled {
                    position,
                    choice: choice.to_string(),
                });
            }
            self.step(choice)?;
        }
        Ok(())
    }

    /// Execute one enabled choice. Callers are expected to pick from
    /// [`Pipeline::enabled`]/[`Pipeline::ready`]; stepping a non-enabled
    /// choice fails typed.
    pub fn step(&mut self, choice: Choice) -> Result<(), PipelineError> {
        self.machine.step(choice).map_err(|e| match e {
            SimError::NotEnabled(c) => PipelineError::NotEnabled {
                position: self.machine.metrics().steps as usize,
                choice: c.to_string(),
            },
            e => step_err(choice, e),
        })
    }

    /// Consume the quiescent pipeline into an oracle-checkable report.
    pub fn finish(self) -> Result<SimReport, PipelineError> {
        if !self.quiescent() {
            return Err(PipelineError::Stalled(
                "finish() before quiescence".to_string(),
            ));
        }
        let (report, ()) = self
            .machine
            .finish()
            .map_err(|e| step_err("wal-finalize", e))?;
        Ok(report)
    }

    /// Number of merge groups (needed by the independence relation).
    pub fn groups(&self) -> usize {
        self.machine.groups()
    }

    /// Group owning a view — delegates to the §6.1 partitioning.
    pub fn group_of_view(&self, v: ViewId) -> usize {
        self.machine.group_of_view(v)
    }
}

/// A component (or the log) rejected an event while executing `choice`.
fn step_err(choice: impl ToString, e: SimError) -> PipelineError {
    PipelineError::Step {
        choice: choice.to_string(),
        detail: e.to_string(),
    }
}
