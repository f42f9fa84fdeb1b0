//! Seeded workload generator and deployment installer.
//!
//! A frozen copy of the `mvc_whips::workload` chain generator: relations
//! `R0(k0,k1) … R3(k3,k4)`, one source each; views `V_i = R_i ⋈ R_{i+1}`
//! on the shared key; tuples unique per relation; deletes hit live
//! tuples only. Frozen means the benchmark's inputs do not move when the
//! repository's generator or its vendored `rand` stand-in change: the
//! program under test receives only the `Vec<WorkloadTxn>` built here.

use mvc_core::ViewId;
use mvc_relational::{tuple, Schema, Tuple, ViewDef};
use mvc_source::{SourceId, WriteOp};
use mvc_whips::{Deployment, ManagerKind, WorkloadTxn};

/// Every workload uses the same shape: 4 chained relations, 3
/// overlapping join views, a quarter of the updates are deletes.
pub const RELATIONS: usize = 4;
pub const VIEWS: usize = 3;
pub const DELETE_PERCENT: u64 = 25;

/// splitmix64: the benchmark's own stream, independent of `vendor/rand`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these ranges is
    /// far below anything the workload can show).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

pub fn rel_name(i: usize) -> String {
    format!("R{i}")
}

pub fn view_id(i: usize) -> ViewId {
    ViewId(i as u32 + 1)
}

/// Generate `updates` single-write transactions over the chain.
pub fn generate(seed: u64, updates: usize, key_domain: i64) -> Vec<WorkloadTxn> {
    let mut rng = Rng::new(seed);
    let mut live: Vec<Vec<Tuple>> = vec![Vec::new(); RELATIONS];
    let mut txns = Vec::with_capacity(updates);
    let domain = key_domain as u64;
    for _ in 0..updates {
        let r = rng.below(RELATIONS as u64) as usize;
        let write = gen_write(&mut rng, &mut live[r], r, domain);
        txns.push(WorkloadTxn {
            source: SourceId(r as u32),
            writes: vec![write],
            global: false,
        });
    }
    txns
}

fn gen_write(rng: &mut Rng, live: &mut Vec<Tuple>, r: usize, domain: u64) -> WriteOp {
    let delete_live = |rng: &mut Rng, live: &mut Vec<Tuple>| {
        let idx = rng.below(live.len() as u64) as usize;
        WriteOp::delete(rel_name(r), live.swap_remove(idx))
    };
    if !live.is_empty() && rng.below(100) < DELETE_PERCENT {
        return delete_live(rng, live);
    }
    // Unique tuples (set semantics at the sources, the Strobe
    // assumption): retry a few times, and once the key domain is
    // saturated delete a live tuple instead.
    for _ in 0..9 {
        let t = tuple![rng.below(domain) as i64, rng.below(domain) as i64];
        if !live.contains(&t) {
            live.push(t.clone());
            return WriteOp::insert(rel_name(r), t);
        }
    }
    delete_live(rng, live)
}

/// Install the chain relations and the three overlapping join views on
/// any of the repository's builders; `kinds[i]` manages `V_i`.
pub fn install<D: Deployment>(mut b: D, kinds: &[ManagerKind; VIEWS]) -> D {
    for i in 0..RELATIONS {
        let schema = Schema::ints(&[&format!("k{i}"), &format!("k{}", i + 1)]);
        b = b.add_relation(SourceId(i as u32), rel_name(i), schema);
    }
    for (i, kind) in kinds.iter().enumerate() {
        let def = ViewDef::builder(format!("V{i}").as_str())
            .from(rel_name(i).as_str())
            .from(rel_name(i + 1).as_str())
            .join_on(
                format!("{}.k{}", rel_name(i), i + 1),
                format!("{}.k{}", rel_name(i + 1), i + 1),
            )
            .build(b.view_catalog())
            .expect("chain view over installed relations");
        b = b.add_view(view_id(i), def, *kind);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Order-sensitive FNV-1a digest over (source, insert?, key values):
    /// nothing a `Debug` or `Display` change in the repository can move.
    fn fingerprint(txns: &[WorkloadTxn]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: i64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for t in txns {
            for w in &t.writes {
                mix(i64::from(t.source.0));
                mix(i64::from(w.op.is_insert()));
                for v in w.op.tuple().values() {
                    mix(v.as_i64().expect("integer keys"));
                }
            }
        }
        h
    }

    /// Pinned digest: the generator is a frozen copy, so the same seed
    /// gives the same inputs on every commit of this repository.
    #[test]
    fn generator_is_deterministic_per_seed() {
        let a = generate(7, 500, 8);
        assert_eq!(fingerprint(&a), fingerprint(&generate(7, 500, 8)));
        assert_ne!(fingerprint(&a), fingerprint(&generate(8, 500, 8)));
        assert_eq!(fingerprint(&a), 6_994_658_923_118_307_556);
    }

    #[test]
    fn tuples_are_unique_and_deletes_hit_live_tuples() {
        let txns = generate(3, 4000, 8);
        assert_eq!(txns.len(), 4000);
        let mut live = BTreeSet::new();
        for t in &txns {
            let w = &t.writes[0];
            assert_eq!(w.relation.as_str(), rel_name(t.source.0 as usize));
            let key = (t.source.0, w.op.tuple().clone());
            if w.op.is_insert() {
                assert!(live.insert(key), "duplicate insert");
            } else {
                assert!(live.remove(&key), "delete of a dead tuple");
            }
        }
        // a saturated key domain (8² tuples per relation) stays saturated
        assert!(live.len() > RELATIONS * 8 * 8 * 3 / 4);
    }
}
