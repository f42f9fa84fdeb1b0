//! The warehouse store: materialized views, atomic multi-view
//! transactions, and the committed-state history the consistency oracle
//! checks.

use mvc_core::{ActionList, TxnSeq, UpdateId, ViewId, WarehouseTxn};
use mvc_relational::{Delta, Relation, SchemaError, ViewName};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// The concrete action-list payload of the relational instantiation: the
/// delta to apply to one materialized view.
pub type ViewDelta = Delta;

/// Action list carrying a view delta.
pub type WarehouseAction = ActionList<ViewDelta>;

/// A warehouse transaction carrying view deltas.
pub type StoreTxn = WarehouseTxn<ViewDelta>;

/// Errors from applying transactions.
#[derive(Debug, Clone, PartialEq)]
pub enum WarehouseError {
    UnknownView(ViewId),
    Schema(SchemaError),
    DuplicateView(ViewId),
}

impl fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarehouseError::UnknownView(v) => write!(f, "unknown view {v}"),
            WarehouseError::Schema(e) => write!(f, "schema error: {e}"),
            WarehouseError::DuplicateView(v) => write!(f, "view {v} already registered"),
        }
    }
}

impl std::error::Error for WarehouseError {}

impl From<SchemaError> for WarehouseError {
    fn from(e: SchemaError) -> Self {
        WarehouseError::Schema(e)
    }
}

/// Record of one committed warehouse transaction, kept for the oracle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CommittedTxn {
    pub seq: TxnSeq,
    /// Views the transaction updated.
    pub views: BTreeSet<ViewId>,
    /// Update frontier the transaction advanced those views to.
    pub frontier: UpdateId,
    /// Content fingerprint of *every* view after the commit (the warehouse
    /// state vector of §2.3). Each entry is [`Relation::fingerprint`]: a
    /// multiset hash the relation maintains incrementally, so recording
    /// the vector reads one `u64` per view — O(#views) per commit,
    /// whatever the views hold. 64-bit and non-adversarial: equal content
    /// always gives equal entries, so a mismatch proves divergence; equal
    /// entries are evidence of equal content, not proof (`snapshot`, when
    /// recorded, holds the contents themselves).
    pub fingerprints: BTreeMap<ViewId, u64>,
    /// Full contents after the commit when snapshot recording is on.
    pub snapshot: Option<BTreeMap<ViewId, Relation>>,
    /// Commit order (may differ from `seq` order under fault injection).
    pub commit_index: u64,
}

/// One materialized view plus bookkeeping. Content is `Arc`-shared so
/// `read` hands out handles instead of clones; `apply` copies-on-write
/// only when a reader still holds the previous version.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ViewSlot {
    name: ViewName,
    content: Arc<Relation>,
    /// Last source update reflected (0 = initial state).
    version: UpdateId,
}

/// Serializable image of a whole [`Warehouse`], written into durability
/// checkpoints. History is included in full — the consistency oracle
/// needs pre-crash commits to certify a stitched run.
#[derive(Debug, Clone)]
pub struct WarehouseSnapshot {
    /// `(id, name, content, version)` per registered view.
    pub views: Vec<(ViewId, ViewName, Relation, UpdateId)>,
    pub history: Vec<CommittedTxn>,
    pub record_snapshots: bool,
    pub commits: u64,
}

/// The warehouse: a set of materialized views updated by atomic
/// multi-view transactions (the merge process's `WT`s / `BWT`s).
///
/// ```
/// use mvc_core::{ActionList, TxnSeq, UpdateId, ViewId};
/// use mvc_relational::{tuple, Delta, Relation, Schema};
/// use mvc_warehouse::{StoreTxn, Warehouse};
///
/// let mut w = Warehouse::new(false);
/// w.register_view(ViewId(1), "V", Relation::new(Schema::ints(&["a", "b"]))).unwrap();
///
/// let mut d = Delta::new();
/// d.insert(tuple![1, 2]);
/// let txn = StoreTxn {
///     seq: TxnSeq(1),
///     rows: vec![UpdateId(1)],
///     views: [ViewId(1)].into(),
///     frontier: UpdateId(1),
///     actions: vec![ActionList::single(ViewId(1), UpdateId(1), d)],
/// };
/// w.apply(&txn).unwrap();
/// assert!(w.view(ViewId(1)).unwrap().contains(&tuple![1, 2]));
/// assert_eq!(w.history().len(), 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Warehouse {
    views: BTreeMap<ViewId, ViewSlot>,
    history: Vec<CommittedTxn>,
    record_snapshots: bool,
    commits: u64,
}

impl Warehouse {
    /// `record_snapshots` keeps full view contents per commit — required
    /// by the consistency oracle, expensive for large benchmarks
    /// (fingerprints are always recorded).
    pub fn new(record_snapshots: bool) -> Self {
        Warehouse {
            views: BTreeMap::new(),
            history: Vec::new(),
            record_snapshots,
            commits: 0,
        }
    }

    /// Register a view with its initial materialization (commonly the view
    /// evaluated at source state `ss_0`).
    pub fn register_view(
        &mut self,
        id: ViewId,
        name: impl Into<ViewName>,
        initial: Relation,
    ) -> Result<(), WarehouseError> {
        if self.views.contains_key(&id) {
            return Err(WarehouseError::DuplicateView(id));
        }
        self.views.insert(
            id,
            ViewSlot {
                name: name.into(),
                content: Arc::new(initial),
                version: UpdateId::ZERO,
            },
        );
        Ok(())
    }

    pub fn view_ids(&self) -> impl Iterator<Item = ViewId> + '_ {
        self.views.keys().copied()
    }

    /// Current contents of one view.
    pub fn view(&self, id: ViewId) -> Option<&Relation> {
        self.views.get(&id).map(|s| s.content.as_ref())
    }

    /// Version (last reflected update) of one view.
    pub fn version(&self, id: ViewId) -> Option<UpdateId> {
        self.views.get(&id).map(|s| s.version)
    }

    /// Consistent multi-view read (the warehouse customer-inquiry
    /// scenario of §1.1): hands out `Arc` handles to the requested views
    /// atomically. No tuple data is copied — a later `apply` to the same
    /// view copies-on-write, leaving the returned handles untouched.
    pub fn read(&self, ids: &[ViewId]) -> BTreeMap<ViewId, Arc<Relation>> {
        ids.iter()
            .filter_map(|id| self.views.get(id).map(|s| (*id, Arc::clone(&s.content))))
            .collect()
    }

    /// Apply one warehouse transaction atomically: every action list in
    /// the transaction, in order, then record the new state vector.
    pub fn apply(&mut self, txn: &StoreTxn) -> Result<&CommittedTxn, WarehouseError> {
        // Validate everything that can fail first — atomicity: every view
        // exists and every inserted tuple fits its view's schema.
        for al in &txn.actions {
            let slot = self
                .views
                .get(&al.view)
                .ok_or(WarehouseError::UnknownView(al.view))?;
            al.payload.check_against(slot.content.schema())?;
        }
        for al in &txn.actions {
            let slot = self.views.get_mut(&al.view).expect("validated");
            // Copy-on-write: clones the relation only when a reader still
            // holds the previous version's handle.
            al.payload
                .apply_to(Arc::make_mut(&mut slot.content))
                .expect("validated");
            slot.version = slot.version.max(al.last);
        }
        self.commits += 1;
        let record = CommittedTxn {
            seq: txn.seq,
            views: txn.views.clone(),
            frontier: txn.frontier,
            fingerprints: self
                .views
                .iter()
                .map(|(&id, s)| (id, s.content.fingerprint()))
                .collect(),
            snapshot: self.record_snapshots.then(|| {
                self.views
                    .iter()
                    .map(|(&id, s)| (id, s.content.as_ref().clone()))
                    .collect()
            }),
            commit_index: self.commits,
        };
        self.history.push(record);
        Ok(self.history.last().expect("just pushed"))
    }

    /// Group commit: apply a run of ready transactions back to back,
    /// in order, under whatever lock the caller already holds. Each
    /// transaction gets its own history record (byte-identical to
    /// applying them one `apply` call at a time) — only the caller's
    /// locking is amortized. Stops at the first failing transaction,
    /// returning how many committed before it alongside the error.
    pub fn apply_batch<'a, I>(&mut self, txns: I) -> Result<usize, (usize, WarehouseError)>
    where
        I: IntoIterator<Item = &'a StoreTxn>,
    {
        let mut applied = 0;
        for txn in txns {
            self.apply(txn).map_err(|e| (applied, e))?;
            applied += 1;
        }
        Ok(applied)
    }

    /// Committed-transaction history in commit order.
    pub fn history(&self) -> &[CommittedTxn] {
        &self.history
    }

    /// Mutable history access — exists solely so adversarial tests can
    /// plant corrupted records and prove the consistency oracle notices.
    pub fn history_mut(&mut self) -> &mut Vec<CommittedTxn> {
        &mut self.history
    }

    pub fn commit_count(&self) -> u64 {
        self.commits
    }

    /// Checkpoint-anchored history retention: drop committed records with
    /// `commit_index` strictly below `watermark`, returning how many were
    /// reclaimed. Callers tie `watermark` to the read path's GC floor (no
    /// live session can observe a cut below it) and to the durability
    /// checkpoint (recovery replays only from the last checkpoint, so it
    /// never needs records below it either). History stays contiguous in
    /// commit order, so oracle lookups by `commit_index` keep working.
    pub fn prune_history_below(&mut self, watermark: u64) -> usize {
        let cut = self.history.partition_point(|r| r.commit_index < watermark);
        self.history.drain(..cut);
        cut
    }

    /// Capture the full store for a durability checkpoint.
    pub fn snapshot(&self) -> WarehouseSnapshot {
        WarehouseSnapshot {
            views: self
                .views
                .iter()
                .map(|(&id, s)| (id, s.name.clone(), s.content.as_ref().clone(), s.version))
                .collect(),
            history: self.history.clone(),
            record_snapshots: self.record_snapshots,
            commits: self.commits,
        }
    }

    /// Rebuild a store from a checkpoint snapshot.
    pub fn restore(s: WarehouseSnapshot) -> Self {
        Warehouse {
            views: s
                .views
                .into_iter()
                .map(|(id, name, content, version)| {
                    (
                        id,
                        ViewSlot {
                            name,
                            content: Arc::new(content),
                            version,
                        },
                    )
                })
                .collect(),
            history: s.history,
            record_snapshots: s.record_snapshots,
            commits: s.commits,
        }
    }

    /// Fingerprints of the initial (pre-any-commit) state vector.
    pub fn initial_fingerprints(&self) -> BTreeMap<ViewId, u64> {
        // Note: valid only before the first apply(); callers snapshot it
        // at setup time. After commits the current content has moved on.
        self.views
            .iter()
            .map(|(&id, s)| (id, s.content.fingerprint()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_relational::{tuple, Schema};

    fn delta_ins(vals: &[(i64, i64)]) -> Delta {
        let mut d = Delta::new();
        for &(a, b) in vals {
            d.insert(tuple![a, b]);
        }
        d
    }

    fn wh() -> Warehouse {
        let mut w = Warehouse::new(true);
        w.register_view(ViewId(1), "V1", Relation::new(Schema::ints(&["a", "b"])))
            .unwrap();
        w.register_view(ViewId(2), "V2", Relation::new(Schema::ints(&["b", "c"])))
            .unwrap();
        w
    }

    fn txn(seq: u64, actions: Vec<WarehouseAction>) -> StoreTxn {
        let views = actions.iter().map(|a| a.view).collect();
        let frontier = actions.iter().map(|a| a.last).max().unwrap();
        StoreTxn {
            seq: TxnSeq(seq),
            rows: actions.iter().map(|a| a.last).collect(),
            actions,
            views,
            frontier,
        }
    }

    #[test]
    fn atomic_multi_view_apply() {
        let mut w = wh();
        let t = txn(
            1,
            vec![
                ActionList::single(ViewId(1), UpdateId(1), delta_ins(&[(1, 2)])),
                ActionList::single(ViewId(2), UpdateId(1), delta_ins(&[(2, 3)])),
            ],
        );
        let rec = w.apply(&t).unwrap();
        assert_eq!(rec.frontier, UpdateId(1));
        assert_eq!(rec.commit_index, 1);
        assert!(w.view(ViewId(1)).unwrap().contains(&tuple![1, 2]));
        assert!(w.view(ViewId(2)).unwrap().contains(&tuple![2, 3]));
        assert_eq!(w.version(ViewId(1)), Some(UpdateId(1)));
    }

    #[test]
    fn apply_batch_matches_per_txn_apply() {
        let run = [
            txn(
                1,
                vec![ActionList::single(
                    ViewId(1),
                    UpdateId(1),
                    delta_ins(&[(1, 2)]),
                )],
            ),
            txn(
                2,
                vec![ActionList::single(
                    ViewId(2),
                    UpdateId(2),
                    delta_ins(&[(2, 3)]),
                )],
            ),
            txn(
                3,
                vec![ActionList::single(
                    ViewId(1),
                    UpdateId(3),
                    delta_ins(&[(4, 5)]),
                )],
            ),
        ];
        let mut batched = wh();
        assert_eq!(batched.apply_batch(run.iter()).unwrap(), 3);
        let mut serial = wh();
        for t in &run {
            serial.apply(t).unwrap();
        }
        assert_eq!(batched.history().len(), serial.history().len());
        for (bt, st) in batched.history().iter().zip(serial.history()) {
            assert_eq!(bt.seq, st.seq);
            assert_eq!(bt.commit_index, st.commit_index);
            assert_eq!(bt.fingerprints, st.fingerprints);
        }
        assert_eq!(
            batched.read(&[ViewId(1), ViewId(2)]),
            serial.read(&[ViewId(1), ViewId(2)])
        );
    }

    #[test]
    fn apply_batch_stops_at_first_failure() {
        let mut w = wh();
        let run = [
            txn(
                1,
                vec![ActionList::single(
                    ViewId(1),
                    UpdateId(1),
                    delta_ins(&[(1, 2)]),
                )],
            ),
            txn(
                2,
                vec![ActionList::single(
                    ViewId(9),
                    UpdateId(2),
                    delta_ins(&[(2, 3)]),
                )],
            ),
        ];
        let (applied, err) = w.apply_batch(run.iter()).unwrap_err();
        assert_eq!(applied, 1, "first txn committed before the failure");
        assert!(matches!(err, WarehouseError::UnknownView(ViewId(9))));
        assert_eq!(w.history().len(), 1);
    }

    /// Partial-failure semantics in full: on error at index `i`, exactly
    /// the first `i` transactions are visible — contents, versions, and
    /// history fingerprints all match a warehouse that applied only the
    /// good prefix — and nothing of the failing or later transactions
    /// leaked in.
    #[test]
    fn apply_batch_partial_failure_visibility() {
        let good = |seq: u64, view: u32, vals: (i64, i64)| {
            txn(
                seq,
                vec![ActionList::single(
                    ViewId(view),
                    UpdateId(seq),
                    delta_ins(&[vals]),
                )],
            )
        };
        let run = [
            good(1, 1, (1, 2)),
            good(2, 2, (2, 3)),
            good(3, 1, (4, 5)),
            // Fails validation (unknown view) at index 3…
            txn(
                4,
                vec![
                    ActionList::single(ViewId(1), UpdateId(4), delta_ins(&[(6, 7)])),
                    ActionList::single(ViewId(9), UpdateId(4), delta_ins(&[(8, 9)])),
                ],
            ),
            // …so this one must never run.
            good(5, 2, (10, 11)),
        ];
        let mut w = wh();
        let (applied, err) = w.apply_batch(run.iter()).unwrap_err();
        assert_eq!(applied, 3, "exactly the prefix before the failure");
        assert!(matches!(err, WarehouseError::UnknownView(ViewId(9))));

        // Same shape, failing on a tuple instead of a view id: the second
        // action's tuple does not fit V2, after a first action that does
        // fit V1. Nothing more may become visible.
        let mut bad_arity = Delta::new();
        bad_arity.insert(tuple![8]);
        let schema_run = [
            txn(
                4,
                vec![
                    ActionList::single(ViewId(1), UpdateId(4), delta_ins(&[(6, 7)])),
                    ActionList::single(ViewId(2), UpdateId(4), bad_arity),
                ],
            ),
            good(5, 2, (10, 11)),
        ];
        let (applied, err) = w.apply_batch(schema_run.iter()).unwrap_err();
        assert_eq!(applied, 0);
        assert!(matches!(err, WarehouseError::Schema(_)));

        let mut prefix_only = wh();
        assert_eq!(prefix_only.apply_batch(run[..3].iter()).unwrap(), 3);
        assert_eq!(
            w.read(&[ViewId(1), ViewId(2)]),
            prefix_only.read(&[ViewId(1), ViewId(2)])
        );
        assert_eq!(w.commit_count(), 3);
        assert_eq!(w.history().len(), 3);
        for (got, want) in w.history().iter().zip(prefix_only.history()) {
            assert_eq!(got.seq, want.seq);
            assert_eq!(got.commit_index, want.commit_index);
            assert_eq!(got.fingerprints, want.fingerprints);
        }
        // The failing txn's valid first action must not have leaked: its
        // atomicity is per-transaction, not per-action.
        assert!(!w.view(ViewId(1)).unwrap().contains(&tuple![6, 7]));
        assert!(!w.view(ViewId(2)).unwrap().contains(&tuple![10, 11]));
        assert_eq!(w.version(ViewId(1)), Some(UpdateId(3)));
        assert_eq!(w.version(ViewId(2)), Some(UpdateId(2)));
    }

    /// `read` hands out handles: the cut stays frozen while the warehouse
    /// moves on (copy-on-write in `apply`), and an un-retained read costs
    /// no relation clone at all.
    #[test]
    fn read_handles_are_stable_snapshots() {
        let mut w = wh();
        w.apply(&txn(
            1,
            vec![ActionList::single(
                ViewId(1),
                UpdateId(1),
                delta_ins(&[(1, 2)]),
            )],
        ))
        .unwrap();
        let cut = w.read(&[ViewId(1)]);
        w.apply(&txn(
            2,
            vec![ActionList::single(
                ViewId(1),
                UpdateId(2),
                delta_ins(&[(3, 4)]),
            )],
        ))
        .unwrap();
        assert_eq!(cut[&ViewId(1)].len(), 1, "retained cut unaffected");
        assert!(!cut[&ViewId(1)].contains(&tuple![3, 4]));
        assert_eq!(w.view(ViewId(1)).unwrap().len(), 2);
        // With the old handle dropped, the next apply mutates in place
        // (same allocation — no reader, no copy).
        drop(cut);
        let before = Arc::as_ptr(&w.read(&[ViewId(1)])[&ViewId(1)]);
        w.apply(&txn(
            3,
            vec![ActionList::single(
                ViewId(1),
                UpdateId(3),
                delta_ins(&[(5, 6)]),
            )],
        ))
        .unwrap();
        assert_eq!(before, Arc::as_ptr(&w.read(&[ViewId(1)])[&ViewId(1)]));
    }

    /// Retained history still satisfies recovery: prune below a
    /// checkpoint watermark, snapshot/restore (the durability path), and
    /// the restored store continues committing with correct commit
    /// indices and oracle-visible records for everything at or above the
    /// watermark.
    #[test]
    fn pruned_history_survives_snapshot_restore() {
        let step = |seq: u64| {
            txn(
                seq,
                vec![ActionList::single(
                    ViewId(1),
                    UpdateId(seq),
                    delta_ins(&[(seq as i64, 0)]),
                )],
            )
        };
        let mut w = wh();
        let mut twin = wh();
        for seq in 1..=6 {
            w.apply(&step(seq)).unwrap();
            twin.apply(&step(seq)).unwrap();
        }
        assert_eq!(w.prune_history_below(4), 3);
        assert_eq!(w.history().len(), 3);
        assert_eq!(w.history()[0].commit_index, 4);
        // Checkpoint round-trip with pruned history.
        let mut restored = Warehouse::restore(w.snapshot());
        assert_eq!(restored.commit_count(), 6);
        restored.apply(&step(7)).unwrap();
        twin.apply(&step(7)).unwrap();
        assert_eq!(restored.history().last().unwrap().commit_index, 7);
        // Every retained record matches the unpruned twin's.
        for rec in restored.history() {
            let want = &twin.history()[(rec.commit_index - 1) as usize];
            assert_eq!(rec.seq, want.seq);
            assert_eq!(rec.fingerprints, want.fingerprints);
        }
        assert_eq!(
            restored.read(&[ViewId(1), ViewId(2)]),
            twin.read(&[ViewId(1), ViewId(2)])
        );
        // Pruning everything keeps the store usable.
        assert_eq!(restored.prune_history_below(u64::MAX), 4);
        restored.apply(&step(8)).unwrap();
        assert_eq!(restored.history().last().unwrap().commit_index, 8);
    }

    #[test]
    fn unknown_view_rejected_before_any_mutation() {
        let mut w = wh();
        let t = txn(
            1,
            vec![
                ActionList::single(ViewId(1), UpdateId(1), delta_ins(&[(1, 2)])),
                ActionList::single(ViewId(9), UpdateId(1), delta_ins(&[(2, 3)])),
            ],
        );
        assert!(matches!(
            w.apply(&t),
            Err(WarehouseError::UnknownView(ViewId(9)))
        ));
        assert!(w.view(ViewId(1)).unwrap().is_empty(), "atomic rejection");
        assert!(w.history().is_empty());
    }

    /// A tuple that does not fit its view is found before anything moves:
    /// the earlier action list of the same transaction (valid on its own,
    /// and with a delete that would have hit) leaves no trace.
    #[test]
    fn schema_error_rejected_before_any_mutation() {
        let mut w = wh();
        w.apply(&txn(
            1,
            vec![ActionList::single(
                ViewId(1),
                UpdateId(1),
                delta_ins(&[(1, 2)]),
            )],
        ))
        .unwrap();
        let before = w.clone();

        let mut first = delta_ins(&[(3, 4)]);
        first.delete(tuple![1, 2]);
        let mut wrong_type = Delta::new();
        wrong_type.insert(tuple![5, "x"]);
        let mut wrong_arity = Delta::new();
        wrong_arity.insert(tuple![5]);
        for bad in [wrong_type, wrong_arity] {
            let t = txn(
                2,
                vec![
                    ActionList::single(ViewId(1), UpdateId(2), first.clone()),
                    ActionList::single(ViewId(2), UpdateId(2), bad),
                ],
            );
            assert!(matches!(w.apply(&t), Err(WarehouseError::Schema(_))));
        }

        let ids = [ViewId(1), ViewId(2)];
        assert_eq!(w.read(&ids), before.read(&ids), "views untouched");
        for id in ids {
            assert_eq!(w.version(id), before.version(id));
            assert_eq!(
                w.view(id).unwrap().fingerprint(),
                before.history()[0].fingerprints[&id]
            );
        }
        assert_eq!(w.commit_count(), 1);
        assert_eq!(w.history().len(), 1, "no record for a rejected txn");
        // A mis-typed *delete* cannot match anything, so it is a no-op,
        // not an error (deletes are clamped).
        let mut d = Delta::new();
        d.delete(tuple![5, "x"]);
        w.apply(&txn(2, vec![ActionList::single(ViewId(2), UpdateId(2), d)]))
            .unwrap();
        assert!(w.view(ViewId(2)).unwrap().is_empty());
    }

    #[test]
    fn history_records_state_vector() {
        let mut w = wh();
        w.apply(&txn(
            1,
            vec![ActionList::single(
                ViewId(1),
                UpdateId(1),
                delta_ins(&[(1, 2)]),
            )],
        ))
        .unwrap();
        w.apply(&txn(
            2,
            vec![ActionList::single(
                ViewId(2),
                UpdateId(2),
                delta_ins(&[(2, 3)]),
            )],
        ))
        .unwrap();
        let h = w.history();
        assert_eq!(h.len(), 2);
        // fingerprints cover *all* views at each commit
        assert_eq!(h[0].fingerprints.len(), 2);
        assert_eq!(h[1].fingerprints.len(), 2);
        // V1 unchanged between commits → same fingerprint
        assert_eq!(h[0].fingerprints[&ViewId(1)], h[1].fingerprints[&ViewId(1)]);
        assert_ne!(h[0].fingerprints[&ViewId(2)], h[1].fingerprints[&ViewId(2)]);
        let snap = h[1].snapshot.as_ref().unwrap();
        assert!(snap[&ViewId(1)].contains(&tuple![1, 2]));
    }

    #[test]
    fn consistent_read_returns_requested_views() {
        let mut w = wh();
        w.apply(&txn(
            1,
            vec![ActionList::single(
                ViewId(1),
                UpdateId(1),
                delta_ins(&[(1, 2)]),
            )],
        ))
        .unwrap();
        let r = w.read(&[ViewId(1), ViewId(2), ViewId(7)]);
        assert_eq!(r.len(), 2, "unknown views skipped");
        assert_eq!(r[&ViewId(1)].len(), 1);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut w = wh();
        assert!(matches!(
            w.register_view(ViewId(1), "again", Relation::new(Schema::ints(&["x"]))),
            Err(WarehouseError::DuplicateView(_))
        ));
    }

    #[test]
    fn deletes_are_clamped_idempotent() {
        let mut w = wh();
        let mut d = Delta::new();
        d.delete(tuple![9, 9]);
        w.apply(&txn(1, vec![ActionList::single(ViewId(1), UpdateId(1), d)]))
            .unwrap();
        assert!(w.view(ViewId(1)).unwrap().is_empty());
    }

    #[test]
    fn version_is_max_of_applied_frontiers() {
        let mut w = wh();
        w.apply(&txn(
            1,
            vec![ActionList::batch(
                ViewId(1),
                UpdateId(1),
                UpdateId(3),
                delta_ins(&[(1, 2)]),
            )],
        ))
        .unwrap();
        assert_eq!(w.version(ViewId(1)), Some(UpdateId(3)));
    }
}
