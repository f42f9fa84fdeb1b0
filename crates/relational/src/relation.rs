//! Bag (multiset) relations.
//!
//! Incremental view maintenance over select-project-join views is only
//! correct under bag semantics (Griffin & Libkin, SIGMOD '95 — the paper's
//! ref \[3\]): a projection can map two distinct base tuples to the same view
//! tuple, and deleting one base tuple must not delete the view tuple while
//! a derivation remains. Relations therefore store a multiplicity per
//! distinct tuple.

use crate::schema::{Schema, SchemaError};
use crate::tuple::Tuple;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A multiset of tuples conforming to a [`Schema`].
///
/// Backed by a `BTreeMap<Tuple, u64>` so iteration order is deterministic —
/// important for golden tests that render the paper's tables byte-for-byte.
///
/// The schema is held behind an `Arc`: schemas are immutable after
/// catalog construction, so cloning a relation (or instantiating many
/// empty relations over one view definition) shares the attribute list
/// instead of copying it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Relation {
    schema: Arc<Schema>,
    rows: BTreeMap<Tuple, u64>,
    /// Total multiplicity (cached so `len` is O(1)).
    count: u64,
    /// Multiset hash of `rows` (see [`Relation::fingerprint`]), kept in
    /// step with every content change so reading it is O(1).
    fingerprint: u64,
}

/// Direction of a multiplicity change in [`Relation::change`].
#[derive(Clone, Copy)]
enum Change {
    Add,
    Remove,
}

/// `h(t)` of the multiset hash: the tuple's `Hash` under [`FoldHasher`],
/// forced odd so that `n · h(t)` (mod 2^64) is injective in `n` — two
/// multiplicities of one tuple never fingerprint alike.
///
/// Out of line on purpose, by a small margin. The 14 % this note used to
/// cite (the Strobe manager re-inserting its whole mirror per emit) went
/// away with that rebuild; re-tested since, 6 alternating pairs of the
/// benchmark with / without the attribute: `spa_wide` `visible_mean_ms`
/// 0.1170 / 0.1196 and `pa_queryback` `updates_per_s` 18 543 / 18 145
/// (each better with it in 5 of 6 pairs), `pa_queryback`
/// `visible_mean_ms` 0.124 / 0.117 (inside the run-to-run spread).
/// Nothing to gain from inlining it, so every workload keeps the code it
/// was measured with.
#[inline(never)]
pub(crate) fn tuple_hash(t: &Tuple) -> u64 {
    let mut h = FoldHasher::default();
    t.hash(&mut h);
    h.finish() | 1
}

/// Word-at-a-time hasher for [`tuple_hash`]: each word written is xored
/// into the state, which is then replaced by the two halves of its
/// 128-bit product with an odd constant, xored together (the folded
/// multiply of wyhash and of ahash's fallback). Unkeyed and fixed, so a
/// fingerprint means the same in every process that reads a WAL.
///
/// Every insert and delete of every relation pays one tuple hash — the
/// view managers' intermediate results included — so it has to be cheap:
/// 8.5 / 17 ns for a tuple of four / eight integers, where SipHash
/// (`DefaultHasher`) takes 46 / 90 ns. It gives no protection against
/// chosen input; the fingerprint claims none. The join indexes
/// (`index.rs`) hash their keys with it for the same reason.
pub(crate) struct FoldHasher(u64);

impl Default for FoldHasher {
    fn default() -> Self {
        FoldHasher(0x243f_6a88_85a3_08d3)
    }
}

impl FoldHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        let m = u128::from(self.0 ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// Byte strings: zero-padded words, then the length, so a string and
    /// its zero-extended sibling differ.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
        self.fold(bytes.len() as u64);
    }

    // What `Value` and slices actually write (tags, ints, float bits,
    // length prefixes): one fold each, not a trip through `write`.
    fn write_u8(&mut self, v: u8) {
        self.fold(v.into());
    }

    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

impl Relation {
    /// Empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        Relation::shared(Arc::new(schema))
    }

    /// Empty relation sharing an existing schema handle (no deep copy).
    pub fn shared(schema: Arc<Schema>) -> Self {
        Relation {
            schema,
            rows: BTreeMap::new(),
            count: 0,
            fingerprint: 0,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples counting multiplicity.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Number of *distinct* tuples.
    pub fn distinct_len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Multiplicity of a tuple (0 when absent).
    pub fn multiplicity(&self, t: &Tuple) -> u64 {
        self.rows.get(t).copied().unwrap_or(0)
    }

    /// Does the relation contain at least one copy of `t`?
    pub fn contains(&self, t: &Tuple) -> bool {
        self.multiplicity(t) > 0
    }

    /// Insert one copy of a tuple (schema-checked).
    pub fn insert(&mut self, t: Tuple) -> Result<(), SchemaError> {
        self.insert_n(t, 1)
    }

    /// Insert `n` copies.
    pub fn insert_n(&mut self, t: Tuple, n: u64) -> Result<(), SchemaError> {
        if n == 0 {
            return Ok(());
        }
        self.schema.check(&t)?;
        self.change(Cow::Owned(t), n, Change::Add);
        Ok(())
    }

    /// Remove one copy of a tuple. Returns `true` when a copy was present
    /// and removed; deleting an absent tuple is a no-op returning `false`
    /// (sources may race; the warehouse treats this as idempotent).
    pub fn delete(&mut self, t: &Tuple) -> bool {
        self.delete_n(t, 1) > 0
    }

    /// Remove up to `n` copies; returns how many were actually removed.
    pub fn delete_n(&mut self, t: &Tuple, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.change(Cow::Borrowed(t), n, Change::Remove)
    }

    /// The one place tuples enter or leave `rows`: adds `n > 0` copies of
    /// `t`, or removes up to `n` (clamped to what is present), and moves
    /// `count` and `fingerprint` by the copies that actually changed
    /// hands, which it returns. A removal that finds nothing hashes
    /// nothing.
    fn change(&mut self, t: Cow<'_, Tuple>, n: u64, dir: Change) -> u64 {
        match dir {
            Change::Add => {
                let term = n.wrapping_mul(tuple_hash(&t));
                *self.rows.entry(t.into_owned()).or_insert(0) += n;
                self.count += n;
                self.fingerprint = self.fingerprint.wrapping_add(term);
                n
            }
            Change::Remove => {
                let Some(m) = self.rows.get_mut(t.as_ref()) else {
                    return 0;
                };
                let removed = (*m).min(n);
                *m -= removed;
                if *m == 0 {
                    self.rows.remove(t.as_ref());
                }
                self.count -= removed;
                let term = removed.wrapping_mul(tuple_hash(&t));
                self.fingerprint = self.fingerprint.wrapping_sub(term);
                removed
            }
        }
    }

    /// Remove all tuples.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.count = 0;
        self.fingerprint = 0;
    }

    /// Iterate `(tuple, multiplicity)` pairs in deterministic (sorted) order.
    pub fn iter_counted(&self) -> impl Iterator<Item = (&Tuple, u64)> {
        self.rows.iter().map(|(t, &n)| (t, n))
    }

    /// Iterate tuples, repeating each according to its multiplicity.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.rows
            .iter()
            .flat_map(|(t, &n)| std::iter::repeat_n(t, n as usize))
    }

    /// Distinct tuples, sorted.
    pub fn distinct(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.keys()
    }

    /// Collect all tuples (with multiplicity) into a vector.
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.iter().cloned().collect()
    }

    /// Multiset union.
    pub fn union(&self, other: &Relation) -> Relation {
        let mut out = self.clone();
        for (t, n) in other.iter_counted() {
            out.change(Cow::Borrowed(t), n, Change::Add);
        }
        out
    }

    /// Multiset difference (`self ∸ other`, monus semantics).
    pub fn difference(&self, other: &Relation) -> Relation {
        let mut out = self.clone();
        for (t, n) in other.iter_counted() {
            out.delete_n(t, n);
        }
        out
    }

    /// A content fingerprint, used by the consistency oracle and the read
    /// path to compare states cheaply.
    ///
    /// **Construction.** A multiset hash: the wrapping (mod 2^64) sum over
    /// distinct tuples of `multiplicity · h(t)`, with `h` the tuple's
    /// `Hash` under a fixed, unkeyed 64-bit hasher, forced odd. The sum is
    /// commutative, so the value is a pure function of content —
    /// independent of the order and history of the operations that
    /// produced it, sensitive to multiplicity, `0` for the empty relation
    /// whatever its schema.
    ///
    /// **Cost.** O(1): the sum is maintained by every mutation
    /// (`insert_n`, `delete_n`, `clear`, and whatever is built on them),
    /// each paying one tuple hash per tuple that actually entered or left.
    /// Nothing here scans `rows`, so recording the warehouse state vector
    /// per commit costs O(#views), not O(Σ|view|).
    ///
    /// **Collision model.** 64 bits against non-adversarial content: equal
    /// content ⇒ equal value; unequal content collides with probability
    /// ≈ 2⁻⁶⁴ per comparison. A sum is linear, so someone choosing tuples
    /// can forge a collision — this is an audit checksum, not a MAC. Equal
    /// values are evidence, never proof, of equal content; where proof is
    /// needed compare the relations themselves.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The multiset hash recomputed from `rows` — the reference the
    /// maintained value is tested against.
    #[cfg(test)]
    fn fingerprint_from_scratch(&self) -> u64 {
        self.rows.iter().fold(0u64, |acc, (t, &n)| {
            acc.wrapping_add(n.wrapping_mul(tuple_hash(t)))
        })
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (t, n) in self.iter_counted() {
            for _ in 0..n {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "{t}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn rel(names: &[&str]) -> Relation {
        Relation::new(Schema::ints(names))
    }

    #[test]
    fn multiset_insert_delete() {
        let mut r = rel(&["a"]);
        r.insert(tuple![1]).unwrap();
        r.insert(tuple![1]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.distinct_len(), 1);
        assert_eq!(r.multiplicity(&tuple![1]), 2);
        assert!(r.delete(&tuple![1]));
        assert_eq!(r.multiplicity(&tuple![1]), 1);
        assert!(r.delete(&tuple![1]));
        assert!(!r.delete(&tuple![1]), "deleting absent tuple is a no-op");
        assert!(r.is_empty());
    }

    #[test]
    fn schema_enforced_on_insert() {
        let mut r = rel(&["a", "b"]);
        assert!(r.insert(tuple![1]).is_err());
        assert!(r.insert(tuple![1, "x"]).is_err());
        assert!(r.insert(tuple![1, 2]).is_ok());
    }

    #[test]
    fn union_adds_multiplicities() {
        let mut a = rel(&["a"]);
        let mut b = rel(&["a"]);
        a.insert_n(tuple![1], 2).unwrap();
        b.insert_n(tuple![1], 3).unwrap();
        b.insert(tuple![2]).unwrap();
        let u = a.union(&b);
        assert_eq!(u.multiplicity(&tuple![1]), 5);
        assert_eq!(u.multiplicity(&tuple![2]), 1);
        assert_eq!(u.len(), 6);
    }

    #[test]
    fn difference_is_monus() {
        let mut a = rel(&["a"]);
        let mut b = rel(&["a"]);
        a.insert_n(tuple![1], 2).unwrap();
        b.insert_n(tuple![1], 5).unwrap();
        let d = a.difference(&b);
        assert_eq!(d.multiplicity(&tuple![1]), 0);
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn delete_n_partial() {
        let mut r = rel(&["a"]);
        r.insert_n(tuple![7], 3).unwrap();
        assert_eq!(r.delete_n(&tuple![7], 2), 2);
        assert_eq!(r.len(), 1);
        assert_eq!(r.delete_n(&tuple![7], 10), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn deterministic_iteration_order() {
        let mut r = rel(&["a"]);
        for v in [3i64, 1, 2] {
            r.insert(tuple![v]).unwrap();
        }
        let vals: Vec<i64> = r.iter().map(|t| t.get(0).as_i64().unwrap()).collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }

    /// The fingerprint follows content, multiplicities included: an XOR
    /// combine (or any combine that ignores counts) fails the last four
    /// lines.
    #[test]
    fn fingerprint_tracks_content_and_multiplicity() {
        let of = |rows: &[(i64, u64)]| {
            let mut r = rel(&["a"]);
            for &(v, n) in rows {
                r.insert_n(tuple![v], n).unwrap();
            }
            r.fingerprint()
        };
        let (a, b) = (1, 2);
        assert_eq!(of(&[]), 0, "fixed for the empty relation");
        assert_eq!(of(&[]), rel(&["x", "y"]).fingerprint(), "schema-blind");
        assert_eq!(of(&[(a, 1), (b, 1)]), of(&[(b, 1), (a, 1)]));
        assert_ne!(of(&[(a, 1)]), of(&[(a, 1), (b, 1)]));
        assert_ne!(of(&[(a, 2)]), of(&[]));
        assert_ne!(of(&[(a, 1)]), of(&[]));
        assert_ne!(of(&[(a, 2)]), of(&[(a, 1)]));
        assert_ne!(of(&[(a, 2), (b, 1)]), of(&[(a, 1), (b, 2)]));
    }

    /// The combine is a sum, so what the tuple hash must not have is
    /// additive structure: `h(a) + h(b) = h(c) + h(d)` for distinct pairs
    /// would make two different two-tuple relations fingerprint alike. A
    /// multiplicative hash without the fold fails this on exactly such a
    /// small dense integer domain; all 524,800 pair sums over 32×32 must
    /// be distinct (chance ≈ 10⁻⁸ for an ideal hash).
    #[test]
    fn tuple_hash_has_no_additive_structure_on_dense_keys() {
        let hashes: Vec<u64> = (0..32i64)
            .flat_map(|a| (0..32i64).map(move |b| tuple_hash(&tuple![a, b])))
            .collect();
        let mut sums: Vec<u64> = Vec::with_capacity(hashes.len() * (hashes.len() + 1) / 2);
        for (i, &x) in hashes.iter().enumerate() {
            sums.extend(hashes[i..].iter().map(|&y| x.wrapping_add(y)));
        }
        let total = sums.len();
        sums.sort_unstable();
        sums.dedup();
        assert_eq!(sums.len(), total, "two pair-multisets share a fingerprint");
    }

    /// Values that differ only in type, in trailing zero bytes, or in how
    /// they split across attributes hash apart.
    #[test]
    fn tuple_hash_separates_near_identical_tuples() {
        let distinct = [
            tuple![0],
            tuple![false],
            tuple![0.0],
            tuple![""],
            tuple!["ab"],
            tuple!["ab\0"],
            tuple!["a", "b"],
            tuple!["abcdefgh"],
            tuple!["abcdefgh", ""],
            tuple![crate::value::Value::Null],
            tuple![0, 0],
            Tuple::new(vec![]),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for t in &distinct {
            assert!(seen.insert(tuple_hash(t)), "{t} collides");
            assert_eq!(tuple_hash(t), tuple_hash(&t.clone()));
            assert_eq!(tuple_hash(t) & 1, 1);
        }
    }

    mod fingerprint_props {
        use super::*;
        use crate::delta::Delta;
        use proptest::prelude::*;

        /// `((kind, slot, other), (a, b, n))`: one step over a pool of three
        /// relations. Tuples come from a 4×4 domain so deletes hit absent
        /// tuples, over-delete present ones, and re-insert removed ones.
        type Step = ((u8, usize, usize), (i64, i64, u64));

        fn steps() -> impl Strategy<Value = Vec<Step>> {
            proptest::collection::vec(
                ((0u8..7, 0usize..3, 0usize..3), (0i64..4, 0i64..4, 0u64..4)),
                0..60,
            )
        }

        fn apply(pool: &mut [Relation], ((kind, slot, other), (a, b, n)): Step) {
            let t = tuple![a, b];
            match kind {
                0 => pool[slot].insert_n(t, n).unwrap(),
                1 => {
                    let present = pool[slot].multiplicity(&t);
                    assert_eq!(pool[slot].delete_n(&t, n), present.min(n));
                }
                2 => pool[slot].clear(),
                3 => pool[slot] = pool[slot].union(&pool[other]),
                4 => pool[slot] = pool[slot].difference(&pool[other]),
                5 => {
                    // A signed batch: delete up to `n` of one tuple, insert
                    // one of its neighbour — both through `Delta::apply_to`.
                    let mut d = Delta::new();
                    d.add(t, -(n as i64));
                    d.add(tuple![b, a + 1], 1);
                    d.apply_to(&mut pool[slot]).unwrap();
                }
                // Clone-then-diverge, the warehouse's copy-on-write: the
                // copy starts equal and later steps move the two apart.
                _ => pool[other] = pool[slot].clone(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

            /// After every step the maintained value equals the
            /// from-scratch reference, and across the pool fingerprints
            /// agree exactly when contents do.
            #[test]
            fn maintained_fingerprint_equals_reference(steps in steps()) {
                let mut pool = vec![rel(&["a", "b"]); 3];
                for step in steps {
                    apply(&mut pool, step);
                    for r in &pool {
                        prop_assert_eq!(r.fingerprint(), r.fingerprint_from_scratch());
                        prop_assert_eq!(r.len(), r.rows.values().sum::<u64>());
                    }
                    for (x, y) in [(0, 1), (0, 2), (1, 2)] {
                        prop_assert_eq!(
                            pool[x].rows == pool[y].rows,
                            pool[x].fingerprint() == pool[y].fingerprint()
                        );
                    }
                }
            }

            /// Equal content reached by different histories — inserts in
            /// the opposite order, split into single copies, with detours
            /// that are undone — fingerprints equal.
            #[test]
            fn fingerprint_ignores_operation_order(
                rows in proptest::collection::vec((0i64..6, 0i64..6, 1u64..4), 0..20),
            ) {
                let mut fwd = rel(&["a", "b"]);
                for &(a, b, n) in &rows {
                    fwd.insert_n(tuple![a, b], n).unwrap();
                }
                let mut rev = rel(&["a", "b"]);
                for &(a, b, n) in rows.iter().rev() {
                    rev.insert_n(tuple![a + 10, b], n).unwrap();
                    for _ in 0..n {
                        rev.insert(tuple![a, b]).unwrap();
                    }
                }
                for &(a, b, n) in &rows {
                    prop_assert_eq!(rev.delete_n(&tuple![a + 10, b], n), n);
                }
                prop_assert_eq!(&fwd.rows, &rev.rows);
                prop_assert_eq!(fwd.fingerprint(), rev.fingerprint());
                prop_assert_eq!(&fwd, &rev);
            }
        }
    }

    #[test]
    fn display_sorted() {
        let mut r = rel(&["a", "b"]);
        r.insert(tuple![2, 3]).unwrap();
        r.insert(tuple![1, 2]).unwrap();
        assert_eq!(r.to_string(), "{[1, 2], [2, 3]}");
    }
}
