//! Join indexes: a relation's tuples grouped by the values of a fixed
//! list of its columns.
//!
//! A delta query joins a handful of changed tuples against whole base
//! relations. Hashing the base relation per query makes that cost
//! O(|R|); a [`JoinIndex`] kept in step with the relation makes it
//! O(|Δ| × fan-out). The WHIPS sources were DBMSs that answered such
//! queries through indexes on the join columns; a [`Database`] owns one
//! index per registered (relation, column list) pair and maintains it in
//! [`Database::apply`], and a [`StateProvider`] lends it to the
//! evaluator only while it describes the state being queried.
//!
//! [`Database`]: crate::Database
//! [`Database::apply`]: crate::Database::apply
//! [`StateProvider`]: crate::StateProvider

use crate::relation::{tuple_hash, FoldHasher, Relation};
use crate::tuple::Tuple;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The distinct tuples whose key values hash alike, with multiplicities.
/// `hashes[i]` is `tuples[i].0`'s hash (the relation fingerprint's
/// `h(t)`): maintenance scans the hashes and reads no other tuple, and
/// the whole bucket sits behind one table slot — no key to dereference.
#[derive(Debug, Clone, Default)]
struct Bucket {
    hashes: Vec<u64>,
    tuples: Vec<(Tuple, u64)>,
}

impl Bucket {
    fn position(&self, h: u64, t: &Tuple) -> Option<usize> {
        (0..self.hashes.len()).find(|&i| self.hashes[i] == h && self.tuples[i].0 == *t)
    }
}

/// Hash of a key's values, the same for a probe key and for the values
/// a tuple holds at the indexed columns.
fn key_hash<'v>(values: impl Iterator<Item = &'v Value>) -> u64 {
    let mut h = FoldHasher::default();
    values.for_each(|v| v.hash(&mut h));
    h.finish()
}

/// A relation's distinct tuples with their multiplicities, partitioned by
/// the values at `cols`. Every tuple is held, `Null` keys included — the
/// evaluator, not the index, implements "a `Null` key never matches".
#[derive(Debug, Clone)]
pub struct JoinIndex {
    cols: Vec<usize>,
    /// Key hash → bucket. Two keys whose hashes collide share a bucket;
    /// [`JoinIndex::get`] tells them apart.
    buckets: HashMap<u64, Bucket, BuildHasherDefault<FoldHasher>>,
}

/// The values of `t` at `cols`, borrowed when they are adjacent (a
/// single-column key always is).
pub(crate) fn key_of<'t>(t: &'t Tuple, cols: &[usize]) -> Cow<'t, [Value]> {
    match cols {
        [] => Cow::Borrowed(&[]),
        [first, ..] if cols.windows(2).all(|w| w[1] == w[0] + 1) => {
            Cow::Borrowed(&t.values()[*first..*first + cols.len()])
        }
        _ => Cow::Owned(cols.iter().map(|&c| t.get(c).clone()).collect()),
    }
}

impl JoinIndex {
    /// Index the current contents of `rel` on `cols`.
    pub fn build(rel: &Relation, cols: &[usize]) -> Self {
        let mut index = JoinIndex {
            cols: cols.to_vec(),
            buckets: HashMap::default(),
        };
        for (t, n) in rel.iter_counted() {
            index.change(t, n as i64);
        }
        index
    }

    /// The indexed column positions, in key order.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Tuples whose values at [`JoinIndex::cols`] equal `key`, with their
    /// multiplicities.
    pub fn get<'s: 'k, 'k>(
        &'s self,
        key: &'k [Value],
    ) -> impl Iterator<Item = (&'s Tuple, u64)> + 'k {
        self.buckets
            .get(&key_hash(key.iter()))
            .map_or(&[][..], |b| b.tuples.as_slice())
            .iter()
            .filter(move |(t, _)| self.cols.iter().zip(key).all(|(&c, v)| t.get(c) == v))
            .map(|(t, n)| (t, *n))
    }

    /// Record that `n` copies of `t` entered (`n > 0`) or left (`n < 0`)
    /// the relation. Callers pass what actually changed hands, so a
    /// clamped delete moves the index exactly as far as the relation.
    pub(crate) fn change(&mut self, t: &Tuple, n: i64) {
        let key = key_hash(self.cols.iter().map(|&c| t.get(c)));
        let h = tuple_hash(t);
        if n > 0 {
            let bucket = self.buckets.entry(key).or_default();
            match bucket.position(h, t) {
                Some(i) => bucket.tuples[i].1 += n as u64,
                None => {
                    bucket.hashes.push(h);
                    bucket.tuples.push((t.clone(), n as u64));
                }
            }
        } else if let Some(bucket) = self.buckets.get_mut(&key) {
            if let Some(i) = bucket.position(h, t) {
                let m = &mut bucket.tuples[i].1;
                *m = m.saturating_sub(n.unsigned_abs());
                if *m == 0 {
                    bucket.hashes.swap_remove(i);
                    bucket.tuples.swap_remove(i);
                    if bucket.hashes.is_empty() {
                        self.buckets.remove(&key);
                    }
                }
            }
        }
    }

    /// Does this index hold exactly what one rebuilt from `rel` would?
    /// O(|rel|); a check for tests, not for the query path.
    pub fn agrees_with(&self, rel: &Relation) -> bool {
        let fresh = JoinIndex::build(rel, &self.cols);
        let sorted = |b: Option<&Bucket>| {
            let mut v = b.map(|b| b.tuples.clone()).unwrap_or_default();
            v.sort();
            v
        };
        fresh.buckets.len() == self.buckets.len()
            && fresh
                .buckets
                .iter()
                .all(|(k, b)| sorted(Some(b)) == sorted(self.buckets.get(k)))
            && self.buckets.values().all(|b| {
                b.hashes
                    .iter()
                    .zip(&b.tuples)
                    .all(|(&h, (t, _))| h == tuple_hash(t))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;

    #[test]
    fn buckets_follow_multiplicity_and_vanish_at_zero() {
        let mut rel = Relation::new(Schema::ints(&["a", "b"]));
        rel.insert_n(tuple![1, 2], 2).unwrap();
        rel.insert(tuple![3, 2]).unwrap();
        let mut ix = JoinIndex::build(&rel, &[1]);
        assert_eq!(ix.get(&[Value::Int(2)]).count(), 2);
        ix.change(&tuple![1, 2], -2);
        ix.change(&tuple![3, 2], -1);
        assert_eq!(ix.get(&[Value::Int(2)]).count(), 0);
        assert!(ix.buckets.is_empty(), "an emptied bucket is dropped");
    }

    #[test]
    fn keys_borrow_adjacent_columns_and_copy_the_rest() {
        let t = tuple![1, 2, 3];
        assert!(matches!(key_of(&t, &[1]), Cow::Borrowed([Value::Int(2)])));
        assert!(matches!(key_of(&t, &[0, 1]), Cow::Borrowed(_)));
        assert_eq!(
            key_of(&t, &[2, 0]).as_ref(),
            &[Value::Int(3), Value::Int(1)]
        );
        assert!(key_of(&t, &[]).is_empty());
    }
}
