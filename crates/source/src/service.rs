//! The query interface view managers use to compute deltas.
//!
//! Delta computation "may involve queries back to the sources if base data
//! is not cached at the warehouse" (§1, problem 2). Two query modes exist:
//!
//! * **as-of** — answered at a fixed past source state (our MVCC log makes
//!   this exact); complete view managers use it to compute per-update
//!   deltas that are correct by construction;
//! * **current** — answered at whatever state the sources are in when the
//!   query runs, which is how real autonomous sources behave. The answer
//!   may include the effects of later updates — the *intertwining* anomaly
//!   (§1, problem 3) that Strobe-style strongly consistent managers
//!   compensate for.
//!
//! [`SharedCluster`] is the thread-safe handle used by concurrent view
//! managers in the threaded runtime; the deterministic simulator calls the
//! cluster directly.

use crate::cluster::SourceCluster;
use crate::update::{GlobalSeq, SourceId, SourceUpdate, WriteOp};
use mvc_relational::{eval_core, EvalError, Relation, RelationName, SpjCore};
use parking_lot::RwLock;
use std::sync::Arc;

/// Query interface offered to view managers.
pub trait QueryService {
    /// Evaluate an SPJ core at a fixed past state `ss_seq`.
    fn query_as_of(&self, core: &SpjCore, seq: GlobalSeq) -> Result<Relation, EvalError>;

    /// Evaluate an SPJ core at the current state; returns the answer and
    /// the state it was answered at.
    fn query_current(&self, core: &SpjCore) -> Result<(Relation, GlobalSeq), EvalError>;

    /// Fetch one relation at a past state.
    fn fetch_as_of(&self, rel: &RelationName, seq: GlobalSeq) -> Option<Relation>;

    /// Latest committed global sequence.
    fn latest_seq(&self) -> GlobalSeq;
}

impl QueryService for SourceCluster {
    fn query_as_of(&self, core: &SpjCore, seq: GlobalSeq) -> Result<Relation, EvalError> {
        eval_core(core, &self.as_of(seq))
    }

    fn query_current(&self, core: &SpjCore) -> Result<(Relation, GlobalSeq), EvalError> {
        let seq = self.latest_seq();
        // Current state == as-of latest; answered atomically here, but a
        // view manager sees the answer only after a delivery delay, by
        // which time later updates may have committed — the runtime layer
        // injects that delay.
        Ok((eval_core(core, &self.as_of(seq))?, seq))
    }

    fn fetch_as_of(&self, rel: &RelationName, seq: GlobalSeq) -> Option<Relation> {
        self.relation_as_of(rel, seq)
    }

    fn latest_seq(&self) -> GlobalSeq {
        SourceCluster::latest_seq(self)
    }
}

/// Thread-safe shared handle to a cluster (threaded runtime).
#[derive(Debug, Clone)]
pub struct SharedCluster {
    inner: Arc<RwLock<SourceCluster>>,
}

impl SharedCluster {
    pub fn new(cluster: SourceCluster) -> Self {
        SharedCluster {
            inner: Arc::new(RwLock::new(cluster)),
        }
    }

    /// Execute a single-source transaction under the cluster lock.
    pub fn execute(
        &self,
        source: SourceId,
        writes: Vec<WriteOp>,
    ) -> Result<SourceUpdate, crate::cluster::SourceError> {
        self.inner.write().execute(source, writes)
    }

    /// Execute a §6.2 global transaction.
    pub fn execute_global(
        &self,
        coordinator: SourceId,
        writes: Vec<WriteOp>,
    ) -> Result<SourceUpdate, crate::cluster::SourceError> {
        self.inner.write().execute_global(coordinator, writes)
    }

    /// Read access to the underlying cluster.
    pub fn read<R>(&self, f: impl FnOnce(&SourceCluster) -> R) -> R {
        f(&self.inner.read())
    }
}

impl QueryService for SharedCluster {
    fn query_as_of(&self, core: &SpjCore, seq: GlobalSeq) -> Result<Relation, EvalError> {
        self.inner.read().query_as_of(core, seq)
    }

    fn query_current(&self, core: &SpjCore) -> Result<(Relation, GlobalSeq), EvalError> {
        self.inner.read().query_current(core)
    }

    fn fetch_as_of(&self, rel: &RelationName, seq: GlobalSeq) -> Option<Relation> {
        self.inner.read().fetch_as_of(rel, seq)
    }

    fn latest_seq(&self) -> GlobalSeq {
        self.inner.read().latest_seq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_relational::{tuple, Schema, ViewDef};

    fn setup() -> (SourceCluster, SpjCore) {
        let mut c = SourceCluster::new(4);
        c.create_relation(SourceId(0), "R", Schema::ints(&["a", "b"]))
            .unwrap();
        c.create_relation(SourceId(1), "S", Schema::ints(&["b", "c"]))
            .unwrap();
        c.execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        c.execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();
        let v = ViewDef::builder("V")
            .from("R")
            .from("S")
            .join_on("R.b", "S.b")
            .project(["R.a", "R.b", "S.c"])
            .build(c.catalog())
            .unwrap();
        (c, (*v.core).clone())
    }

    #[test]
    fn as_of_query_sees_past_state() {
        let (c, core) = setup();
        // at ss1 only R has data → empty join
        assert!(c.query_as_of(&core, GlobalSeq(1)).unwrap().is_empty());
        // at ss2 the join produces [1,2,3]
        let r = c.query_as_of(&core, GlobalSeq(2)).unwrap();
        assert!(r.contains(&tuple![1, 2, 3]));
    }

    #[test]
    fn current_query_reports_answer_state() {
        let (c, core) = setup();
        let (r, seq) = c.query_current(&core).unwrap();
        assert_eq!(seq, GlobalSeq(2));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn shared_cluster_round_trip() {
        let (c, core) = setup();
        let shared = SharedCluster::new(c);
        let (r, seq) = shared.query_current(&core).unwrap();
        assert_eq!(seq, GlobalSeq(2));
        assert_eq!(r.len(), 1);
        shared
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![9, 2])])
            .unwrap();
        assert_eq!(shared.latest_seq(), GlobalSeq(3));
        assert!(shared
            .fetch_as_of(&"R".into(), GlobalSeq(3))
            .unwrap()
            .contains(&tuple![9, 2]));
    }
}
