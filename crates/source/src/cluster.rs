//! The source cluster: autonomous sources, serializable transaction
//! execution, a versioned (MVCC) change log, and as-of snapshot
//! reconstruction.
//!
//! The WHIPS prototype talked to real autonomous DBMSs; here the cluster
//! simulates them (DESIGN.md §6): each relation lives on exactly one
//! source, transactions execute under a cluster-wide serialization that
//! assigns the global commit order `ss_0, ss_1, …` of §2.1, and every
//! commit appends per-relation deltas to a log with periodic checkpoints
//! so any past state can be reconstructed for as-of queries.

use crate::update::{GlobalSeq, RelationChange, SourceId, SourceUpdate, WriteOp};
use mvc_relational::{
    Catalog, Database, Delta, Relation, RelationName, Schema, SchemaError, StateProvider,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Errors from transaction execution.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceError {
    UnknownSource(SourceId),
    UnknownRelation(RelationName),
    /// The relation belongs to a different source and the transaction was
    /// declared single-source (§2.1 mode).
    WrongSource {
        relation: RelationName,
        owner: SourceId,
        requested: SourceId,
    },
    Schema(SchemaError),
    /// Deleting a tuple that is not present (sources are real databases;
    /// they reject phantom deletes rather than silently ignoring them).
    NoSuchTuple(RelationName),
    EmptyTransaction,
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::UnknownSource(s) => write!(f, "unknown source {s}"),
            SourceError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            SourceError::WrongSource {
                relation,
                owner,
                requested,
            } => write!(f, "relation `{relation}` lives on {owner}, not {requested}"),
            SourceError::Schema(e) => write!(f, "schema error: {e}"),
            SourceError::NoSuchTuple(r) => write!(f, "delete of absent tuple from `{r}`"),
            SourceError::EmptyTransaction => write!(f, "transaction performs no writes"),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<SchemaError> for SourceError {
    fn from(e: SchemaError) -> Self {
        SourceError::Schema(e)
    }
}

/// Per-relation MVCC log: checkpoints plus deltas keyed by commit seq.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RelationLog {
    owner: SourceId,
    /// Checkpoints: full contents at selected sequence numbers. Always
    /// contains the empty relation at `GlobalSeq::INITIAL`.
    checkpoints: BTreeMap<GlobalSeq, Relation>,
    /// Committed deltas by global sequence (sparse: only commits touching
    /// this relation appear).
    deltas: BTreeMap<GlobalSeq, Delta>,
    /// Changes since the last checkpoint.
    since_checkpoint: usize,
}

/// The simulated source cluster.
///
/// ```
/// use mvc_relational::{tuple, RelationName, Schema};
/// use mvc_source::{SourceCluster, SourceId, WriteOp};
///
/// let mut c = SourceCluster::new(4);
/// c.create_relation(SourceId(0), "R", Schema::ints(&["a", "b"])).unwrap();
/// let update = c.execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])]).unwrap();
/// assert_eq!(c.history().len(), 1);
///
/// let r: RelationName = "R".into();
/// assert!(c.relation_current(&r).unwrap().contains(&tuple![1, 2]));
/// // As-of reconstruction: before the update, R was empty.
/// use mvc_source::GlobalSeq;
/// assert!(c.relation_as_of(&r, GlobalSeq(update.seq.0 - 1)).unwrap().is_empty());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SourceCluster {
    catalog: Catalog,
    /// Current contents of every relation (cluster-wide union view; names
    /// are globally unique).
    current: Database,
    logs: BTreeMap<RelationName, RelationLog>,
    /// Full commit history: `history[i]` committed at seq `i+1`.
    history: Vec<SourceUpdate>,
    latest: GlobalSeq,
    /// Checkpoint every this many changes per relation.
    checkpoint_interval: usize,
}

impl SourceCluster {
    /// Create an empty cluster. `checkpoint_interval` controls as-of
    /// reconstruction cost (changes replayed per query ≤ interval).
    pub fn new(checkpoint_interval: usize) -> Self {
        SourceCluster {
            catalog: Catalog::new(),
            current: Database::new(),
            logs: BTreeMap::new(),
            history: Vec::new(),
            latest: GlobalSeq::INITIAL,
            checkpoint_interval: checkpoint_interval.max(1),
        }
    }

    /// Create a relation on a source. Initial contents are empty at
    /// `ss_0`; populate with transactions so history stays complete.
    pub fn create_relation(
        &mut self,
        source: SourceId,
        name: impl Into<RelationName>,
        schema: Schema,
    ) -> Result<(), SourceError> {
        let name = name.into();
        self.catalog.define(name.clone(), schema.clone())?;
        if self.logs.contains_key(&name) {
            return Ok(()); // idempotent redefine (catalog validated equality)
        }
        self.current
            .insert_relation(name.clone(), Relation::new(schema.clone()));
        let mut checkpoints = BTreeMap::new();
        checkpoints.insert(GlobalSeq::INITIAL, Relation::new(schema));
        self.logs.insert(
            name,
            RelationLog {
                owner: source,
                checkpoints,
                deltas: BTreeMap::new(),
                since_checkpoint: 0,
            },
        );
        Ok(())
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn latest_seq(&self) -> GlobalSeq {
        self.latest
    }

    pub fn history(&self) -> &[SourceUpdate] {
        &self.history
    }

    /// Execute a single-source transaction (§2.1): all writes must target
    /// relations owned by `source`. Use [`SourceCluster::execute_global`] for §6.2
    /// multi-source transactions.
    pub fn execute(
        &mut self,
        source: SourceId,
        writes: Vec<WriteOp>,
    ) -> Result<SourceUpdate, SourceError> {
        for w in &writes {
            let log = self
                .logs
                .get(&w.relation)
                .ok_or_else(|| SourceError::UnknownRelation(w.relation.clone()))?;
            if log.owner != source {
                return Err(SourceError::WrongSource {
                    relation: w.relation.clone(),
                    owner: log.owner,
                    requested: source,
                });
            }
        }
        self.commit(source, writes)
    }

    /// Execute a global transaction (§6.2): writes may span sources; the
    /// whole set commits atomically at one global sequence number.
    pub fn execute_global(
        &mut self,
        coordinator: SourceId,
        writes: Vec<WriteOp>,
    ) -> Result<SourceUpdate, SourceError> {
        for w in &writes {
            if !self.logs.contains_key(&w.relation) {
                return Err(SourceError::UnknownRelation(w.relation.clone()));
            }
        }
        self.commit(coordinator, writes)
    }

    fn commit(
        &mut self,
        source: SourceId,
        writes: Vec<WriteOp>,
    ) -> Result<SourceUpdate, SourceError> {
        if writes.is_empty() {
            return Err(SourceError::EmptyTransaction);
        }
        // Validate everything before mutating (transactions are atomic).
        let mut per_rel: BTreeMap<RelationName, Delta> = BTreeMap::new();
        {
            // simulate against a scratch view of current multiplicities
            let mut scratch: BTreeMap<(RelationName, mvc_relational::Tuple), i64> = BTreeMap::new();
            for w in &writes {
                let rel = self
                    .current
                    .relation(&w.relation)
                    .ok_or_else(|| SourceError::UnknownRelation(w.relation.clone()))?;
                rel.schema().check(w.op.tuple())?;
                let key = (w.relation.clone(), w.op.tuple().clone());
                let entry = scratch
                    .entry(key)
                    .or_insert_with(|| rel.multiplicity(w.op.tuple()) as i64);
                match &w.op {
                    mvc_relational::TupleOp::Insert(_) => *entry += 1,
                    mvc_relational::TupleOp::Delete(_) => {
                        if *entry <= 0 {
                            return Err(SourceError::NoSuchTuple(w.relation.clone()));
                        }
                        *entry -= 1;
                    }
                }
                per_rel
                    .entry(w.relation.clone())
                    .or_default()
                    .apply_op(w.op.clone());
            }
        }
        per_rel.retain(|_, d| !d.is_empty());
        if per_rel.is_empty() {
            return Err(SourceError::EmptyTransaction);
        }

        // Commit.
        let seq = self.latest.next();
        self.latest = seq;
        let mut changes = Vec::with_capacity(per_rel.len());
        for (name, delta) in per_rel {
            self.current
                .apply(&name, &delta)
                .expect("validated before commit");
            let log = self.logs.get_mut(&name).expect("existing relation");
            log.deltas.insert(seq, delta.clone());
            log.since_checkpoint += 1;
            if log.since_checkpoint >= self.checkpoint_interval {
                let current_rel = self.current.relation(&name).expect("existing relation");
                log.checkpoints.insert(seq, current_rel.clone());
                log.since_checkpoint = 0;
            }
            changes.push(RelationChange {
                relation: name,
                delta,
            });
        }
        let update = SourceUpdate {
            seq,
            source,
            changes,
        };
        self.history.push(update.clone());
        Ok(update)
    }

    /// Contents of `rel` at source state `ss_seq` (after the `seq`-th
    /// commit). Reconstructs from the nearest checkpoint at or before
    /// `seq`, replaying at most `checkpoint_interval` deltas.
    pub fn relation_as_of(&self, rel: &RelationName, seq: GlobalSeq) -> Option<Relation> {
        self.relation_as_of_ref(rel, seq).map(Cow::into_owned)
    }

    /// Zero-copy variant of [`SourceCluster::relation_as_of`]: lends the
    /// live contents when the relation has not changed after `seq` (the
    /// dominant case — every current-state query lands here) and lends a
    /// checkpoint when `seq` hits one exactly; only a genuinely historical
    /// state between checkpoints is reconstructed.
    pub fn relation_as_of_ref(
        &self,
        rel: &RelationName,
        seq: GlobalSeq,
    ) -> Option<Cow<'_, Relation>> {
        use std::ops::Bound::{Excluded, Included, Unbounded};
        let log = self.logs.get(rel)?;
        if log
            .deltas
            .range((Excluded(seq), Unbounded))
            .next()
            .is_none()
        {
            return self.current.relation(rel).map(Cow::Borrowed);
        }
        let (&ck_seq, snapshot) = log.checkpoints.range(..=seq).next_back()?;
        let replay = log.deltas.range((Excluded(ck_seq), Included(seq)));
        let mut out: Option<Relation> = None;
        for (_, delta) in replay {
            delta
                .apply_to(out.get_or_insert_with(|| snapshot.clone()))
                .expect("logged deltas replay cleanly");
        }
        Some(match out {
            Some(r) => Cow::Owned(r),
            None => Cow::Borrowed(snapshot),
        })
    }

    /// Current contents of a relation.
    pub fn relation_current(&self, rel: &RelationName) -> Option<&Relation> {
        self.current.relation(rel)
    }

    /// A [`StateProvider`] fixed at source state `ss_seq`.
    pub fn as_of(&self, seq: GlobalSeq) -> AsOfProvider<'_> {
        AsOfProvider { cluster: self, seq }
    }

    /// A [`StateProvider`] reading the live current state.
    pub fn current(&self) -> &Database {
        &self.current
    }

    /// Reconstruct the full database at `ss_seq` (oracle use).
    pub fn database_as_of(&self, seq: GlobalSeq) -> Database {
        let mut db = Database::new();
        for name in self.logs.keys() {
            if let Some(rel) = self.relation_as_of(name, seq) {
                db.insert_relation(name.clone(), rel);
            }
        }
        db
    }
}

/// Provider view of the cluster at a fixed past state.
#[derive(Debug, Clone, Copy)]
pub struct AsOfProvider<'a> {
    cluster: &'a SourceCluster,
    seq: GlobalSeq,
}

impl StateProvider for AsOfProvider<'_> {
    fn fetch(&self, name: &RelationName) -> Option<Cow<'_, Relation>> {
        self.cluster.relation_as_of_ref(name, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_relational::tuple;

    fn cluster() -> SourceCluster {
        let mut c = SourceCluster::new(2);
        c.create_relation(SourceId(0), "R", Schema::ints(&["a", "b"]))
            .unwrap();
        c.create_relation(SourceId(1), "S", Schema::ints(&["b", "c"]))
            .unwrap();
        c
    }

    #[test]
    fn transactions_commit_in_global_order() {
        let mut c = cluster();
        let u1 = c
            .execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        let u2 = c
            .execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();
        assert_eq!(u1.seq, GlobalSeq(1));
        assert_eq!(u2.seq, GlobalSeq(2));
        assert_eq!(c.history().len(), 2);
        assert_eq!(c.latest_seq(), GlobalSeq(2));
    }

    #[test]
    fn wrong_source_rejected_single_source_mode() {
        let mut c = cluster();
        let err = c
            .execute(SourceId(0), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap_err();
        assert!(matches!(err, SourceError::WrongSource { .. }));
        // §6.2 global transaction may span sources
        assert!(c
            .execute_global(
                SourceId(0),
                vec![
                    WriteOp::insert("R", tuple![1, 2]),
                    WriteOp::insert("S", tuple![2, 3]),
                ],
            )
            .is_ok());
        assert_eq!(c.history()[0].changes.len(), 2);
    }

    #[test]
    fn as_of_reconstruction_across_checkpoints() {
        let mut c = cluster();
        for i in 0..10i64 {
            c.execute(SourceId(0), vec![WriteOp::insert("R", tuple![i, i])])
                .unwrap();
        }
        // state after 3rd commit has exactly tuples 0,1,2
        let r3 = c.relation_as_of(&"R".into(), GlobalSeq(3)).unwrap();
        assert_eq!(r3.len(), 3);
        assert!(r3.contains(&tuple![2, 2]));
        assert!(!r3.contains(&tuple![3, 3]));
        // initial state empty
        let r0 = c.relation_as_of(&"R".into(), GlobalSeq::INITIAL).unwrap();
        assert!(r0.is_empty());
        // latest equals current
        let rl = c.relation_as_of(&"R".into(), c.latest_seq()).unwrap();
        assert_eq!(&rl, c.relation_current(&"R".into()).unwrap());
    }

    #[test]
    fn as_of_unaffected_relation_stays_constant() {
        let mut c = cluster();
        c.execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();
        for i in 0..5i64 {
            c.execute(SourceId(0), vec![WriteOp::insert("R", tuple![i, i])])
                .unwrap();
        }
        let s_mid = c.relation_as_of(&"S".into(), GlobalSeq(3)).unwrap();
        assert_eq!(s_mid.len(), 1);
    }

    #[test]
    fn atomic_rollback_on_invalid_delete() {
        let mut c = cluster();
        let err = c
            .execute(
                SourceId(0),
                vec![
                    WriteOp::insert("R", tuple![1, 2]),
                    WriteOp::delete("R", tuple![9, 9]),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, SourceError::NoSuchTuple(_)));
        assert!(c.relation_current(&"R".into()).unwrap().is_empty());
        assert_eq!(c.latest_seq(), GlobalSeq::INITIAL, "nothing committed");
    }

    #[test]
    fn delete_of_just_inserted_tuple_within_txn_ok() {
        let mut c = cluster();
        let u = c.execute(
            SourceId(0),
            vec![
                WriteOp::insert("R", tuple![1, 2]),
                WriteOp::delete("R", tuple![1, 2]),
                WriteOp::insert("R", tuple![3, 4]),
            ],
        );
        // net delta: only [3,4]
        let u = u.unwrap();
        assert_eq!(u.changes.len(), 1);
        assert_eq!(u.changes[0].delta.net(&tuple![3, 4]), 1);
        assert_eq!(u.changes[0].delta.net(&tuple![1, 2]), 0);
    }

    #[test]
    fn fully_cancelling_txn_rejected() {
        let mut c = cluster();
        c.execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        let err = c
            .execute(
                SourceId(0),
                vec![
                    WriteOp::delete("R", tuple![1, 2]),
                    WriteOp::insert("R", tuple![1, 2]),
                ],
            )
            .unwrap_err();
        assert_eq!(err, SourceError::EmptyTransaction);
    }

    #[test]
    fn modification_as_delete_insert() {
        let mut c = cluster();
        c.execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        let u = c
            .execute(
                SourceId(0),
                vec![
                    WriteOp::delete("R", tuple![1, 2]),
                    WriteOp::insert("R", tuple![1, 7]),
                ],
            )
            .unwrap();
        assert_eq!(u.changes[0].delta.net(&tuple![1, 2]), -1);
        assert_eq!(u.changes[0].delta.net(&tuple![1, 7]), 1);
        let r = c.relation_current(&"R".into()).unwrap();
        assert!(r.contains(&tuple![1, 7]) && !r.contains(&tuple![1, 2]));
    }

    #[test]
    fn state_provider_as_of() {
        use mvc_relational::StateProvider;
        let mut c = cluster();
        c.execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        c.execute(SourceId(0), vec![WriteOp::delete("R", tuple![1, 2])])
            .unwrap();
        let p1 = c.as_of(GlobalSeq(1));
        assert!(p1.fetch(&"R".into()).unwrap().contains(&tuple![1, 2]));
        let p2 = c.as_of(GlobalSeq(2));
        assert!(p2.fetch(&"R".into()).unwrap().is_empty());
        assert!(p2.fetch(&"Z".into()).is_none());
    }

    #[test]
    fn database_as_of_snapshots_everything() {
        let mut c = cluster();
        c.execute(SourceId(0), vec![WriteOp::insert("R", tuple![1, 2])])
            .unwrap();
        c.execute(SourceId(1), vec![WriteOp::insert("S", tuple![2, 3])])
            .unwrap();
        let db1 = c.database_as_of(GlobalSeq(1));
        assert_eq!(db1.relation(&"R".into()).unwrap().len(), 1);
        assert!(db1.relation(&"S".into()).unwrap().is_empty());
    }
}
