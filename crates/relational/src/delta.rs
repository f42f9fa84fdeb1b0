//! Deltas: signed multisets of tuple changes.
//!
//! A [`Delta`] is the unit of change flowing through the whole system:
//! sources report base-relation deltas, view managers compute view deltas,
//! and warehouse action lists carry view deltas as [`TupleOp`] streams.

use crate::relation::Relation;
use crate::schema::{Schema, SchemaError};
use crate::tuple::Tuple;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A single tuple-level operation, as reported by a source or applied to a
/// materialized view. A modification is modelled as delete(old)+insert(new),
/// exactly as the paper treats updates ("each update is a single tuple
/// insert, delete, or modification").
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TupleOp {
    Insert(Tuple),
    Delete(Tuple),
}

impl TupleOp {
    pub fn tuple(&self) -> &Tuple {
        match self {
            TupleOp::Insert(t) | TupleOp::Delete(t) => t,
        }
    }

    pub fn is_insert(&self) -> bool {
        matches!(self, TupleOp::Insert(_))
    }

    /// The inverse operation (used by compensation in view managers).
    pub fn inverse(&self) -> TupleOp {
        match self {
            TupleOp::Insert(t) => TupleOp::Delete(t.clone()),
            TupleOp::Delete(t) => TupleOp::Insert(t.clone()),
        }
    }
}

impl fmt::Display for TupleOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TupleOp::Insert(t) => write!(f, "+{t}"),
            TupleOp::Delete(t) => write!(f, "-{t}"),
        }
    }
}

/// A signed multiset: per distinct tuple, a (possibly negative) net
/// multiplicity change. Normalized on the fly: entries with net 0 are
/// dropped.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Delta {
    changes: BTreeMap<Tuple, i64>,
}

impl Delta {
    pub fn new() -> Self {
        Delta::default()
    }

    /// Build a delta from a sequence of tuple ops.
    pub fn from_ops<I>(ops: I) -> Self
    where
        I: IntoIterator<Item = TupleOp>,
    {
        let mut d = Delta::new();
        for op in ops {
            d.apply_op(op);
        }
        d
    }

    /// Pure-insert delta from a relation.
    pub fn inserts_from(rel: &Relation) -> Self {
        let mut d = Delta::new();
        for (t, n) in rel.iter_counted() {
            d.add(t.clone(), n as i64);
        }
        d
    }

    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Number of distinct tuples with a nonzero net change.
    pub fn distinct_len(&self) -> usize {
        self.changes.len()
    }

    /// Net multiplicity change for a tuple.
    pub fn net(&self, t: &Tuple) -> i64 {
        self.changes.get(t).copied().unwrap_or(0)
    }

    /// Add `n` (signed) to a tuple's net change.
    pub fn add(&mut self, t: Tuple, n: i64) {
        if n == 0 {
            return;
        }
        use std::collections::btree_map::Entry;
        match self.changes.entry(t) {
            Entry::Occupied(mut e) => {
                *e.get_mut() += n;
                if *e.get() == 0 {
                    e.remove();
                }
            }
            Entry::Vacant(v) => {
                v.insert(n);
            }
        }
    }

    pub fn insert(&mut self, t: Tuple) {
        self.add(t, 1);
    }

    pub fn delete(&mut self, t: Tuple) {
        self.add(t, -1);
    }

    pub fn apply_op(&mut self, op: TupleOp) {
        match op {
            TupleOp::Insert(t) => self.insert(t),
            TupleOp::Delete(t) => self.delete(t),
        }
    }

    /// Merge another delta into this one (composition of changes).
    pub fn merge(&mut self, other: &Delta) {
        for (t, n) in &other.changes {
            self.add(t.clone(), *n);
        }
    }

    /// The composed delta `self; other`.
    pub fn then(&self, other: &Delta) -> Delta {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// The inverse delta (undoes this one).
    pub fn inverse(&self) -> Delta {
        Delta {
            changes: self.changes.iter().map(|(t, n)| (t.clone(), -n)).collect(),
        }
    }

    /// Iterate `(tuple, net-change)` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.changes.iter().map(|(t, &n)| (t, n))
    }

    /// Expand to a canonical op list: all deletes (sorted), then all
    /// inserts (sorted), each repeated per |net|. Deletes first so that a
    /// modification shrinks before it grows, and so replaying never
    /// transiently exceeds final multiplicities.
    pub fn to_ops(&self) -> Vec<TupleOp> {
        let mut ops = Vec::new();
        for (t, n) in &self.changes {
            if *n < 0 {
                for _ in 0..(-n) {
                    ops.push(TupleOp::Delete(t.clone()));
                }
            }
        }
        for (t, n) in &self.changes {
            if *n > 0 {
                for _ in 0..*n {
                    ops.push(TupleOp::Insert(t.clone()));
                }
            }
        }
        ops
    }

    /// Would [`Delta::apply_to`] succeed on a relation with this schema?
    /// Only inserts can fail (deleting a tuple that cannot be there is a
    /// no-op), so only they are checked. Lets a multi-relation writer
    /// validate everything before its first mutation.
    pub fn check_against(&self, schema: &Schema) -> Result<(), SchemaError> {
        self.changes
            .iter()
            .filter(|(_, &n)| n > 0)
            .try_for_each(|(t, _)| schema.check(t))
    }

    /// Apply to a relation. Deletes are clamped at zero multiplicity
    /// (monus), matching warehouse-side idempotent application. Fails on
    /// the first insert the relation's schema rejects, leaving the
    /// deletes and earlier inserts applied — call
    /// [`Delta::check_against`] first where that matters.
    pub fn apply_to(&self, rel: &mut Relation) -> Result<(), SchemaError> {
        self.apply_observed(rel, |_, _| {})
    }

    /// [`Delta::apply_to`], reporting to `seen` every tuple whose
    /// multiplicity actually moved and by how much (a clamped delete
    /// reports what it removed) — how a [`Database`](crate::Database)
    /// keeps its join indexes in step.
    pub(crate) fn apply_observed(
        &self,
        rel: &mut Relation,
        mut seen: impl FnMut(&Tuple, i64),
    ) -> Result<(), SchemaError> {
        for (t, n) in &self.changes {
            if *n < 0 {
                let removed = rel.delete_n(t, (-n) as u64);
                if removed > 0 {
                    seen(t, -(removed as i64));
                }
            }
        }
        for (t, n) in &self.changes {
            if *n > 0 {
                rel.insert_n(t.clone(), *n as u64)?;
                seen(t, *n);
            }
        }
        Ok(())
    }

    /// Positive part as a relation (for display / joining in delta rules).
    pub fn inserts_relation(&self, schema: &Schema) -> Result<Relation, SchemaError> {
        let mut r = Relation::new(schema.clone());
        for (t, n) in &self.changes {
            if *n > 0 {
                r.insert_n(t.clone(), *n as u64)?;
            }
        }
        Ok(r)
    }

    /// Negative part (as positive multiplicities) as a relation.
    pub fn deletes_relation(&self, schema: &Schema) -> Result<Relation, SchemaError> {
        let mut r = Relation::new(schema.clone());
        for (t, n) in &self.changes {
            if *n < 0 {
                r.insert_n(t.clone(), (-n) as u64)?;
            }
        }
        Ok(r)
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, op) in self.to_ops().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{op}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn insert_then_delete_cancels() {
        let mut d = Delta::new();
        d.insert(tuple![1]);
        d.delete(tuple![1]);
        assert!(d.is_empty());
    }

    #[test]
    fn merge_composes() {
        let mut a = Delta::new();
        a.insert(tuple![1]);
        a.insert(tuple![2]);
        let mut b = Delta::new();
        b.delete(tuple![1]);
        b.insert(tuple![3]);
        let c = a.then(&b);
        assert_eq!(c.net(&tuple![1]), 0);
        assert_eq!(c.net(&tuple![2]), 1);
        assert_eq!(c.net(&tuple![3]), 1);
    }

    #[test]
    fn inverse_undoes() {
        let mut d = Delta::new();
        d.add(tuple![1], 3);
        d.add(tuple![2], -2);
        assert!(d.then(&d.inverse()).is_empty());
    }

    #[test]
    fn to_ops_deletes_first() {
        let mut d = Delta::new();
        d.insert(tuple![2]);
        d.delete(tuple![1]);
        let ops = d.to_ops();
        assert_eq!(ops[0], TupleOp::Delete(tuple![1]));
        assert_eq!(ops[1], TupleOp::Insert(tuple![2]));
    }

    #[test]
    fn apply_to_relation_round_trip() {
        let schema = Schema::ints(&["a"]);
        let mut r = Relation::new(schema.clone());
        r.insert_n(tuple![1], 2).unwrap();
        let mut d = Delta::new();
        d.add(tuple![1], -1);
        d.add(tuple![5], 2);
        d.apply_to(&mut r).unwrap();
        assert_eq!(r.multiplicity(&tuple![1]), 1);
        assert_eq!(r.multiplicity(&tuple![5]), 2);
        d.inverse().apply_to(&mut r).unwrap();
        assert_eq!(r.multiplicity(&tuple![1]), 2);
        assert_eq!(r.multiplicity(&tuple![5]), 0);
    }

    #[test]
    fn from_ops_and_parts() {
        let d = Delta::from_ops([
            TupleOp::Insert(tuple![1]),
            TupleOp::Insert(tuple![1]),
            TupleOp::Delete(tuple![2]),
        ]);
        let schema = Schema::ints(&["a"]);
        let ins = d.inserts_relation(&schema).unwrap();
        let del = d.deletes_relation(&schema).unwrap();
        assert_eq!(ins.multiplicity(&tuple![1]), 2);
        assert_eq!(del.multiplicity(&tuple![2]), 1);
    }

    #[test]
    fn op_inverse() {
        let op = TupleOp::Insert(tuple![1]);
        assert_eq!(op.inverse(), TupleOp::Delete(tuple![1]));
        assert_eq!(op.inverse().inverse(), op);
    }
}
