//! The join-level (pre-projection) mirror the query-back managers keep
//! ([`StrobeVm`](crate::StrobeVm), [`EcaVm`](crate::EcaVm)), and the
//! segment arithmetic they share.
//!
//! A join tuple is the concatenation of one base tuple per source
//! occurrence; the slice belonging to occurrence `k` is its *segment*.
//! Deleting a base tuple removes exactly the join tuples carrying it as a
//! segment, so the mirror keeps, per occurrence, an index from segment to
//! join tuples. The index lives here and not inside [`Relation`]: it is
//! touched only where a join tuple enters or leaves the mirror, and
//! relations that no query-back manager mirrors pay nothing for it.

use mvc_relational::{
    eval_join_with, Delta, EvalError, Relation, Schema, SchemaError, SpjCore, StateProvider, Tuple,
    Value,
};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// Position range of occurrence `k`'s attributes within the join schema.
fn occurrence_range(core: &SpjCore, k: usize) -> Range<usize> {
    let hi = core
        .offsets
        .get(k + 1)
        .copied()
        .unwrap_or_else(|| core.join_schema.arity());
    core.offsets[k]..hi
}

/// Schema of one source occurrence (the join schema restricted to its
/// position range).
pub(crate) fn occurrence_schema(core: &SpjCore, k: usize) -> Schema {
    core.join_schema
        .project(&occurrence_range(core, k).collect::<Vec<_>>())
        .expect("occurrence range valid")
}

/// The base relations a view reads, one per occurrence, at the state
/// `provider` serves.
pub(crate) fn fetch_sources<'a>(
    core: &SpjCore,
    provider: &'a dyn StateProvider,
) -> Result<Vec<Cow<'a, Relation>>, EvalError> {
    core.sources
        .iter()
        .map(|n| {
            provider
                .fetch(n)
                .ok_or_else(|| EvalError::MissingRelation(n.clone()))
        })
        .collect()
}

/// Remove from `rows` every join tuple whose segment starting at `lo`
/// equals `t` (all of its copies).
pub(crate) fn subtract_segment(rows: &mut Relation, lo: usize, t: &Tuple) {
    let hi = lo + t.arity();
    let matching: Vec<(Tuple, u64)> = rows
        .iter_counted()
        .filter(|(jt, _)| jt.values()[lo..hi] == *t.values())
        .map(|(jt, n)| (jt.clone(), n))
        .collect();
    for (jt, n) in matching {
        rows.delete_n(&jt, n);
    }
}

/// Segment → the join tuples in the mirror that carry it.
type SegmentIndex = HashMap<Vec<Value>, BTreeSet<Tuple>>;

/// Join-level contents plus the per-occurrence segment index.
#[derive(Debug)]
pub(crate) struct JoinMirror {
    rows: Relation,
    /// Per occurrence: its position range in a join tuple and the schema
    /// of a relation holding just that range (computed once — a manager
    /// builds one such relation per insert it queries for).
    occurrences: Vec<(Range<usize>, Arc<Schema>)>,
    /// `by_segment[k]` indexes `rows` by occurrence `k`'s segment. Kept in
    /// step by [`JoinMirror::apply`], and only where a tuple's presence
    /// flips.
    by_segment: Vec<SegmentIndex>,
}

impl JoinMirror {
    /// Empty mirror over `core`'s join schema.
    pub(crate) fn new(core: &SpjCore) -> Self {
        let occurrences: Vec<_> = (0..core.sources.len())
            .map(|k| {
                (
                    occurrence_range(core, k),
                    Arc::new(occurrence_schema(core, k)),
                )
            })
            .collect();
        JoinMirror {
            rows: Relation::new(core.join_schema.clone()),
            by_segment: vec![SegmentIndex::new(); occurrences.len()],
            occurrences,
        }
    }

    pub(crate) fn rows(&self) -> &Relation {
        &self.rows
    }

    /// Start of occurrence `k`'s segment within a join tuple.
    pub(crate) fn offset(&self, k: usize) -> usize {
        self.occurrences[k].0.start
    }

    /// Empty relation over occurrence `k`'s schema.
    pub(crate) fn occurrence_relation(&self, k: usize) -> Relation {
        Relation::shared(self.occurrences[k].1.clone())
    }

    /// Replace the contents by the join of `sources` (one relation per
    /// occurrence) — the load state of a dynamically installed view.
    pub(crate) fn load(
        &mut self,
        core: &SpjCore,
        sources: &[Cow<'_, Relation>],
    ) -> Result<(), EvalError> {
        self.rows = eval_join_with(core, sources)?;
        self.by_segment = self.index_from_scratch();
        Ok(())
    }

    /// Apply a join-level delta (deletes clamp at zero, as in
    /// [`Delta::apply_to`]), updating the index for every tuple that
    /// enters or leaves.
    pub(crate) fn apply(&mut self, delta: &Delta) -> Result<(), SchemaError> {
        for (t, n) in delta.iter() {
            if n < 0 {
                let removed = self.rows.delete_n(t, n.unsigned_abs());
                if removed > 0 && !self.rows.contains(t) {
                    self.reindex(t, false);
                }
            } else {
                let was_present = self.rows.contains(t);
                self.rows.insert_n(t.clone(), n as u64)?;
                if !was_present {
                    self.reindex(t, true);
                }
            }
        }
        Ok(())
    }

    /// Record that join tuple `t` entered (`present`) or left the mirror.
    fn reindex(&mut self, t: &Tuple, present: bool) {
        for ((range, _), index) in self.occurrences.iter().zip(&mut self.by_segment) {
            let segment = &t.values()[range.clone()];
            if present {
                if let Some(bucket) = index.get_mut(segment) {
                    bucket.insert(t.clone());
                } else {
                    index.insert(segment.to_vec(), BTreeSet::from([t.clone()]));
                }
            } else if let Some(bucket) = index.get_mut(segment) {
                bucket.remove(t);
                if bucket.is_empty() {
                    index.remove(segment);
                }
            }
        }
    }

    /// A base-tuple delete, applied locally: cancel in `pending` every join
    /// tuple of mirror ⊕ `pending` whose occurrence-`k` segment is `t`.
    /// The mirror's share comes from the index, `pending`'s from a scan of
    /// `pending` — the cost follows the batch, not the mirror.
    pub(crate) fn delete_segment(&self, k: usize, t: &Tuple, pending: &mut Delta) {
        let lo = self.offset(k);
        let hi = lo + t.arity();
        let mut hits: Vec<Tuple> = pending
            .iter()
            .filter(|(jt, _)| jt.values()[lo..hi] == *t.values())
            .map(|(jt, _)| jt.clone())
            .collect();
        if let Some(bucket) = self.by_segment[k].get(t.values()) {
            hits.extend(bucket.iter().filter(|jt| pending.net(jt) == 0).cloned());
        }
        for jt in hits {
            // What `Delta::apply_to` would leave of `jt` in the mirror.
            let held = (self.rows.multiplicity(&jt) as i64 + pending.net(&jt)).max(0);
            pending.add(jt, -held);
        }
    }

    fn index_from_scratch(&self) -> Vec<SegmentIndex> {
        let mut fresh = vec![SegmentIndex::new(); self.occurrences.len()];
        for t in self.rows.distinct() {
            for ((range, _), index) in self.occurrences.iter().zip(&mut fresh) {
                index
                    .entry(t.values()[range.clone()].to_vec())
                    .or_default()
                    .insert(t.clone());
            }
        }
        fresh
    }

    /// Does the maintained index equal one rebuilt from the rows?
    #[cfg(test)]
    pub(crate) fn index_agrees(&self) -> bool {
        self.by_segment == self.index_from_scratch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_relational::{tuple, Catalog, ViewDef};

    fn core() -> SpjCore {
        let cat = Catalog::new()
            .with("R", Schema::ints(&["a", "b"]))
            .with("S", Schema::ints(&["b", "c"]));
        ViewDef::builder("V")
            .from("R")
            .from("S")
            .join_on("R.b", "S.b")
            .build(&cat)
            .unwrap()
            .core
    }

    fn delta(changes: &[(Tuple, i64)]) -> Delta {
        let mut d = Delta::new();
        for (t, n) in changes {
            d.add(t.clone(), *n);
        }
        d
    }

    #[test]
    fn occurrence_schema_is_the_segment_of_the_join_schema() {
        let core = core();
        assert_eq!(occurrence_schema(&core, 0).arity(), 2);
        assert_eq!(occurrence_schema(&core, 1).arity(), 2);
        let m = JoinMirror::new(&core);
        assert_eq!((m.offset(0), m.offset(1)), (0, 2));
        assert!(m.occurrence_relation(1).insert_n(tuple![2, 3], 1).is_ok());
    }

    /// The index follows presence, not multiplicity: a second copy and its
    /// removal leave it alone, the last copy leaving clears the bucket.
    #[test]
    fn index_follows_presence_flips() {
        let mut m = JoinMirror::new(&core());
        let (x, y) = (tuple![1, 2, 2, 3], tuple![1, 2, 2, 4]);
        m.apply(&delta(&[(x.clone(), 2), (y.clone(), 1)])).unwrap();
        assert!(m.index_agrees());
        assert_eq!(m.by_segment[0][tuple![1, 2].values()].len(), 2);
        m.apply(&delta(&[(x.clone(), -1), (y.clone(), -5)]))
            .unwrap();
        assert!(m.index_agrees());
        assert_eq!(m.rows().multiplicity(&x), 1);
        assert!(!m.by_segment[1].contains_key(tuple![2, 4].values()));
        m.apply(&delta(&[(x, -1), (tuple![9, 9, 9, 9], -1)]))
            .unwrap();
        assert!(m.rows().is_empty());
        assert!(m.by_segment.iter().all(HashMap::is_empty));
    }

    /// `delete_segment` against the definition: apply `pending` to a copy
    /// of the mirror and cancel every match found there.
    #[test]
    fn delete_segment_matches_the_scan_of_mirror_plus_pending() {
        let mut m = JoinMirror::new(&core());
        m.apply(&delta(&[
            (tuple![1, 2, 2, 3], 1),
            (tuple![1, 2, 2, 4], 1),
            (tuple![5, 2, 2, 3], 1),
        ]))
        .unwrap();
        // in the mirror and cancelled / in the mirror and doubled / new /
        // new and doubled / over-deleted / other segment
        let pending = delta(&[
            (tuple![1, 2, 2, 3], -1),
            (tuple![1, 2, 2, 4], 1),
            (tuple![1, 2, 2, 7], 1),
            (tuple![1, 2, 2, 8], 2),
            (tuple![1, 2, 2, 9], -1),
            (tuple![5, 2, 2, 7], 1),
        ]);
        for (k, t) in [(0, tuple![1, 2]), (1, tuple![2, 3]), (1, tuple![6, 6])] {
            let mut by_scan = pending.clone();
            let mut effective = m.rows().clone();
            pending.apply_to(&mut effective).unwrap();
            let lo = m.offset(k);
            for (jt, n) in effective.iter_counted() {
                if jt.values()[lo..lo + 2] == *t.values() {
                    by_scan.add(jt.clone(), -(n as i64));
                }
            }
            let mut by_index = pending.clone();
            m.delete_segment(k, &t, &mut by_index);
            assert_eq!(by_index, by_scan, "occurrence {k}, tuple {t}");
        }
    }

    #[test]
    fn subtract_segment_removes_every_copy() {
        let mut rows = Relation::new(core().join_schema);
        rows.insert_n(tuple![1, 2, 2, 3], 2).unwrap();
        rows.insert(tuple![1, 2, 2, 4]).unwrap();
        subtract_segment(&mut rows, 2, &tuple![2, 3]);
        assert_eq!(rows.to_tuples(), vec![tuple![1, 2, 2, 4]]);
    }
}
