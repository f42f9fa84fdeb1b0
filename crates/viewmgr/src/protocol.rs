//! The message protocol between view managers, the integrator's update
//! feed, and the source query services.
//!
//! View managers are pure event-driven state machines: they consume
//! [`VmEvent`]s and produce [`VmOutput`]s. All delays (query round trips,
//! channel latencies) are injected by the runtime, which is what makes
//! update *intertwining* (§1, problem 3) actually happen and lets the
//! deterministic simulator explore interleavings.

use mvc_core::{ActionList, UpdateId, ViewId};
use mvc_relational::{
    eval_core, eval_join, maintain::spj_delta, Delta, EvalError, JoinInput, Relation, RelationName,
    SpjCore,
};
use mvc_source::{GlobalSeq, SourceCluster, SourceUpdate};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A source update as forwarded by the integrator: the paper's `Ui`,
/// carrying both the integrator's arrival number (`id`) and the source
/// commit sequence (`seq`). The integrator consumes the cluster's commit
/// stream in order, so `id.0 == seq.0` in every run; both are kept because
/// the algorithms key on `id` while as-of queries key on `seq`.
///
/// The payload is immutable once the source commits it, so it is shared
/// by `Arc`: routing one update to `n` views (or replaying it from the
/// WAL) clones a handle, never the tuple data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NumberedUpdate {
    pub id: UpdateId,
    pub update: Arc<SourceUpdate>,
}

impl NumberedUpdate {
    /// Number an owned update (tests and pseudo-updates; the integrator
    /// shares an existing `Arc` instead).
    pub fn from_owned(id: UpdateId, update: SourceUpdate) -> Self {
        NumberedUpdate {
            id,
            update: Arc::new(update),
        }
    }

    pub fn seq(&self) -> GlobalSeq {
        self.update.seq
    }

    /// The update's per-relation deltas restricted to the given base
    /// relations.
    pub fn changes_for(
        &self,
        base: &std::collections::BTreeSet<RelationName>,
    ) -> BTreeMap<RelationName, Delta> {
        self.update
            .changes
            .iter()
            .filter(|c| base.contains(&c.relation))
            .map(|c| (c.relation.clone(), c.delta.clone()))
            .collect()
    }
}

/// Token correlating a query with its answer (unique per view manager).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct QueryToken(pub u64);

impl fmt::Display for QueryToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Queries a view manager can send "back to the sources" (§1, problem 2).
/// Each carries the view's core by `Arc` — the definition's own handle,
/// so issuing a query never copies it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryRequest {
    /// Exact core-output delta between two past states, given the
    /// intervening per-relation changes. Answered from the MVCC log;
    /// complete and complete-N managers use this.
    DeltaAsOf {
        core: Arc<SpjCore>,
        old: GlobalSeq,
        new: GlobalSeq,
        changes: BTreeMap<RelationName, Delta>,
    },
    /// Full core-output contents at a past state (periodic refresh).
    EvalAsOf { core: Arc<SpjCore>, seq: GlobalSeq },
    /// Core-output delta evaluated entirely at the *current* state — the
    /// uncompensated estimate a merely-convergent manager applies.
    DeltaCurrent {
        core: Arc<SpjCore>,
        changes: BTreeMap<RelationName, Delta>,
    },
    /// Join-level (pre-projection) evaluation at the current state with
    /// one source occurrence substituted by explicit rows — the Strobe
    /// insert query `V⟨t⟩`.
    JoinCurrentWith {
        core: Arc<SpjCore>,
        occurrence: usize,
        rows: Relation,
    },
    /// Full core-output contents at the current state (convergent
    /// correction pass).
    EvalCurrent { core: Arc<SpjCore> },
}

/// Answers to [`QueryRequest`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryAnswer {
    /// For `DeltaAsOf` / `DeltaCurrent`.
    Delta(Delta),
    /// For `EvalAsOf` / `EvalCurrent` / `JoinCurrentWith`: rows plus the
    /// source state the answer was computed at.
    Rows(Relation, GlobalSeq),
}

/// Answer a query against the cluster. The runtime decides *when* this
/// runs relative to further commits — that timing is the entire source of
/// the intertwining anomaly.
pub fn answer_query(cluster: &SourceCluster, req: &QueryRequest) -> Result<QueryAnswer, EvalError> {
    match req {
        QueryRequest::DeltaAsOf {
            core,
            old,
            new,
            changes,
        } => {
            let d = spj_delta(core, &cluster.as_of(*old), &cluster.as_of(*new), changes)?;
            Ok(QueryAnswer::Delta(d))
        }
        QueryRequest::EvalAsOf { core, seq } => Ok(QueryAnswer::Rows(
            eval_core(core, &cluster.as_of(*seq))?,
            *seq,
        )),
        QueryRequest::DeltaCurrent { core, changes } => {
            let now = cluster.current();
            Ok(QueryAnswer::Delta(spj_delta(core, now, now, changes)?))
        }
        QueryRequest::JoinCurrentWith {
            core,
            occurrence,
            rows,
        } => {
            let now = cluster.current();
            let joined = eval_join(core, *occurrence, rows.iter_counted(), |_| {
                JoinInput::State(now)
            })?;
            Ok(QueryAnswer::Rows(joined, cluster.latest_seq()))
        }
        QueryRequest::EvalCurrent { core } => {
            let now = cluster.latest_seq();
            Ok(QueryAnswer::Rows(
                eval_core(core, &cluster.as_of(now))?,
                now,
            ))
        }
    }
}

/// Events delivered to a view manager.
#[derive(Debug, Clone, PartialEq)]
pub enum VmEvent {
    /// A relevant source update, forwarded by the integrator (FIFO).
    Update(NumberedUpdate),
    /// A query answer from the sources.
    Answer {
        token: QueryToken,
        answer: QueryAnswer,
    },
    /// Request to emit whatever can be emitted (end of run, timer).
    Flush,
}

/// Outputs produced by a view manager.
#[derive(Debug, Clone, PartialEq)]
pub enum VmOutput {
    /// An action list for the merge process.
    Action(ActionList<Delta>),
    /// A query for the sources.
    Query {
        token: QueryToken,
        request: QueryRequest,
    },
}

/// View-manager protocol errors (bugs, not legal interleavings).
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    Eval(EvalError),
    /// Answer for a token never issued or already consumed.
    UnknownToken(QueryToken),
    /// Answer payload kind does not match the request.
    AnswerKindMismatch(QueryToken),
    /// Manager does not support this view shape (documented restriction).
    UnsupportedView(ViewId, &'static str),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Eval(e) => write!(f, "evaluation error: {e}"),
            VmError::UnknownToken(t) => write!(f, "unknown query token {t}"),
            VmError::AnswerKindMismatch(t) => write!(f, "answer kind mismatch for {t}"),
            VmError::UnsupportedView(v, why) => write!(f, "view {v} unsupported: {why}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<EvalError> for VmError {
    fn from(e: EvalError) -> Self {
        VmError::Eval(e)
    }
}

/// The view-manager behavioural interface. One manager per view, each a
/// separate concurrent process in the Figure 1 architecture.
pub trait ViewManager: Send {
    fn id(&self) -> ViewId;
    fn def(&self) -> &mvc_relational::ViewDef;
    /// The single-view consistency level this manager guarantees —
    /// everything the merge process needs to know about it (§1.3).
    fn level(&self) -> mvc_core::ConsistencyLevel;
    /// Handle one event, producing actions and/or queries.
    fn handle(&mut self, event: VmEvent) -> Result<Vec<VmOutput>, VmError>;
    /// No buffered updates, no outstanding queries, no unemitted batch.
    fn is_idle(&self) -> bool;
    /// Dynamic installation (§1.2): load the manager's internal state
    /// (materializations, mirrors, auxiliary copies) from the given
    /// source snapshot. Called once, before any update is delivered.
    fn initialize(&mut self, provider: &dyn mvc_relational::StateProvider) -> Result<(), VmError>;
}
