//! Figure 2's three consistency layers, each checked independently:
//! source consistency (serializable commit order), single-view
//! consistency (§2.2), and multiple-view consistency (§2.3).

use mvc_repro::prelude::*;
use mvc_repro::source::GlobalSeq;
use mvc_repro::whips::workload::{generate, install_relations, install_views};
use mvc_repro::whips::{SimBuilder, ViewSuite, WorkloadSpec};

fn run(seed: u64, kind: ManagerKind) -> mvc_repro::whips::SimReport {
    let spec = WorkloadSpec {
        seed,
        relations: 3,
        updates: 40,
        key_domain: 5,
        delete_percent: 30,
        multi_percent: 0,
    };
    let w = generate(&spec);
    let config = SimConfig {
        seed: seed.wrapping_mul(31),
        inject_weight: 5,
        ..SimConfig::default()
    };
    let b = SimBuilder::new(config);
    let b = install_relations(b, 3);
    let (b, _) = install_views(b, ViewSuite::OverlappingChain { count: 2 }, kind);
    b.workload(w.txns).run().expect("runs")
}

/// Layer 1 — source consistency: the cluster's history is a gapless
/// serial order and replaying it from the empty state reproduces every
/// as-of snapshot.
#[test]
fn source_layer_serializable_history() {
    let report = run(3, ManagerKind::Complete);
    let cluster = &report.cluster;
    // gapless commit sequence
    for (i, u) in cluster.history().iter().enumerate() {
        assert_eq!(u.seq, GlobalSeq(i as u64 + 1));
    }
    // replay = MVCC reconstruction at every prefix
    let mut replay = mvc_repro::relational::Database::new();
    for name in cluster.catalog().names() {
        let schema = cluster.catalog().schema(name).unwrap().clone();
        replay.insert_relation(name.clone(), Relation::new(schema));
    }
    for u in cluster.history() {
        for c in &u.changes {
            c.delta
                .apply_to(&mut replay.relation_mut(&c.relation).unwrap())
                .unwrap();
        }
        let reconstructed = cluster.database_as_of(u.seq);
        for name in cluster.catalog().names() {
            assert_eq!(
                replay.relation(name).unwrap(),
                reconstructed.relation(name).unwrap(),
                "as-of reconstruction diverges at {} for {name}",
                u.seq
            );
        }
    }
}

/// Layer 2 — single-view consistency: each complete-managed view's
/// content sequence is an order-preserving, gap-free walk over its own
/// source-state images.
#[test]
fn view_layer_per_view_complete() {
    let report = run(5, ManagerKind::Complete);
    let oracle = Oracle::new(&report).unwrap();
    for e in report.registry.iter() {
        let verdict = oracle.check_view(e.id, ConsistencyLevel::Complete).unwrap();
        assert!(
            verdict.is_satisfied(),
            "view {} not complete: {verdict}",
            e.id
        );
    }
}

/// Layer 2 with batching managers: per-view *strong* consistency holds,
/// and per-view completeness genuinely fails when batches skip states —
/// the oracle can tell the two levels apart.
#[test]
fn view_layer_strong_vs_complete_distinguishable() {
    let mut complete_everywhere = true;
    for seed in 0..8 {
        let report = run(seed, ManagerKind::Strobe);
        let oracle = Oracle::new(&report).unwrap();
        for e in report.registry.iter() {
            let strong = oracle.check_view(e.id, ConsistencyLevel::Strong).unwrap();
            assert!(strong.is_satisfied(), "view {} not strong: {strong}", e.id);
            let complete = oracle.check_view(e.id, ConsistencyLevel::Complete).unwrap();
            if !complete.is_satisfied() {
                complete_everywhere = false;
            }
        }
    }
    assert!(
        !complete_everywhere,
        "across 8 seeds the Strobe managers never batched — the \
         intertwining machinery is not exercising"
    );
}

/// Layer 3 — MVC: the full vector check, run by the oracle per merge
/// group (already exercised everywhere; here explicitly per layer).
#[test]
fn mvc_layer_vector_consistency() {
    for seed in 0..6 {
        let report = run(seed, ManagerKind::Complete);
        let oracle = Oracle::new(&report).unwrap();
        for (g, level, verdict) in oracle.check_report() {
            assert!(verdict.is_satisfied(), "group {g} {level}: {verdict}");
        }
    }
}

/// Single-view consistency does NOT imply MVC: per-view-correct but
/// uncoordinated (pass-through) runs violate the vector check while every
/// individual view remains strongly consistent.
#[test]
fn single_view_consistency_does_not_imply_mvc() {
    let mut mvc_violated = false;
    for seed in 0..20 {
        let config = SimConfig {
            seed,
            algorithm: Some(MergeAlgorithm::PassThrough),
            commit_policy: CommitPolicy::Immediate,
            inject_weight: 6,
            ..SimConfig::default()
        };
        let spec = WorkloadSpec {
            seed,
            relations: 3,
            updates: 30,
            key_domain: 4,
            delete_percent: 25,
            multi_percent: 0,
        };
        let w = generate(&spec);
        let b = SimBuilder::new(config);
        let b = install_relations(b, 3);
        let (b, _) = install_views(
            b,
            ViewSuite::OverlappingChain { count: 2 },
            ManagerKind::Complete,
        );
        let report = b.workload(w.txns).run().expect("runs");
        let oracle = Oracle::new(&report).unwrap();
        // each view individually complete (complete managers, per-AL txns)
        for e in report.registry.iter() {
            let v = oracle.check_view(e.id, ConsistencyLevel::Complete).unwrap();
            assert!(v.is_satisfied(), "view {} broken: {v}", e.id);
        }
        // but the vector check can fail
        let group_verdict = oracle.check_group(0, ConsistencyLevel::Strong);
        if !group_verdict.is_satisfied() {
            mvc_violated = true;
            break;
        }
    }
    assert!(
        mvc_violated,
        "pass-through never violated MVC in 20 seeds — Example 1's anomaly \
         should be reproducible"
    );
}
