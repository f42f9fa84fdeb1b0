//! Property-based verification of Theorems 4.1 and 5.1: over random
//! workloads AND random FIFO-respecting message interleavings,
//!
//! * complete view managers + SPA yield MVC-*complete* warehouse
//!   histories;
//! * strongly consistent (Strobe) managers + PA yield MVC-*strong*
//!   histories;
//! * convergent managers + pass-through converge;
//! * batched commits downgrade completeness to strong consistency but no
//!   further.
//!
//! Every case is checked by the consistency oracle, which machine-checks
//! the §2 definitions against the executed histories.

use mvc_repro::prelude::*;
use mvc_repro::whips::workload::{generate, install_relations, install_views};
use mvc_repro::whips::{SimBuilder, ViewSuite, WorkloadSpec};
use proptest::prelude::*;

#[allow(clippy::too_many_arguments)] // test parameter sweep helper
fn run_suite(
    seed: u64,
    sched_seed: u64,
    relations: usize,
    updates: usize,
    delete_percent: u8,
    inject_weight: u32,
    suite: ViewSuite,
    kind: ManagerKind,
    policy: CommitPolicy,
) -> mvc_repro::whips::SimReport {
    let spec = WorkloadSpec {
        seed,
        relations,
        updates,
        key_domain: 5,
        delete_percent,
        multi_percent: 10,
    };
    let w = generate(&spec);
    let config = SimConfig {
        seed: sched_seed,
        inject_weight,
        commit_policy: policy,
        ..SimConfig::default()
    };
    let b = SimBuilder::new(config);
    let b = install_relations(b, relations);
    let (b, _ids) = install_views(b, suite, kind);
    b.workload(w.txns).run().expect("simulation runs")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Theorem 4.1: SPA with complete managers is MVC-complete, for any
    /// workload and any interleaving.
    #[test]
    fn spa_complete_managers_mvc_complete(
        seed in 0u64..10_000,
        sched in 0u64..10_000,
        updates in 10usize..60,
        deletes in 0u8..50,
        weight in 1u32..8,
    ) {
        let report = run_suite(
            seed, sched, 3, updates, deletes, weight,
            ViewSuite::OverlappingChain { count: 2 },
            ManagerKind::Complete,
            CommitPolicy::DependencyAware,
        );
        prop_assert_eq!(report.guarantees[0], ConsistencyLevel::Complete);
        Oracle::new(&report).unwrap().assert_ok();
    }

    /// Theorem 5.1: PA with Strobe managers is MVC-strongly-consistent.
    #[test]
    fn pa_strobe_managers_mvc_strong(
        seed in 0u64..10_000,
        sched in 0u64..10_000,
        updates in 10usize..50,
        deletes in 0u8..50,
        weight in 2u32..10,
    ) {
        let report = run_suite(
            seed, sched, 3, updates, deletes, weight,
            ViewSuite::OverlappingChain { count: 2 },
            ManagerKind::Strobe,
            CommitPolicy::DependencyAware,
        );
        prop_assert_eq!(report.guarantees[0], ConsistencyLevel::Strong);
        Oracle::new(&report).unwrap().assert_ok();
    }

    /// §6.3 convergent managers under pass-through merge converge.
    #[test]
    fn convergent_managers_converge(
        seed in 0u64..10_000,
        sched in 0u64..10_000,
        updates in 10usize..40,
        weight in 2u32..10,
    ) {
        let report = run_suite(
            seed, sched, 3, updates, 30, weight,
            ViewSuite::OverlappingChain { count: 2 },
            ManagerKind::Convergent { correction_every: 5 },
            CommitPolicy::Immediate,
        );
        prop_assert_eq!(report.guarantees[0], ConsistencyLevel::Convergent);
        Oracle::new(&report).unwrap().assert_ok();
    }

    /// §4.3: batched commits with complete managers still satisfy strong
    /// consistency (each BWT advances by whole source states, in order).
    #[test]
    fn batching_preserves_strong_consistency(
        seed in 0u64..10_000,
        sched in 0u64..10_000,
        updates in 10usize..40,
        batch in 2usize..6,
    ) {
        let report = run_suite(
            seed, sched, 3, updates, 25, 4,
            ViewSuite::OverlappingChain { count: 2 },
            ManagerKind::Complete,
            CommitPolicy::Batched { max_batch: batch },
        );
        prop_assert_eq!(report.guarantees[0], ConsistencyLevel::Strong);
        Oracle::new(&report).unwrap().assert_ok();
    }

    /// Complete-N managers: exact batches of N, strongly consistent
    /// overall (per-view it hits every Nth state).
    #[test]
    fn complete_n_managers_strong(
        seed in 0u64..10_000,
        sched in 0u64..10_000,
        updates in 10usize..40,
        n in 2u32..5,
    ) {
        let report = run_suite(
            seed, sched, 3, updates, 25, 4,
            ViewSuite::OverlappingChain { count: 2 },
            ManagerKind::CompleteN { n },
            CommitPolicy::DependencyAware,
        );
        Oracle::new(&report).unwrap().assert_ok();
    }

    /// §6.1: the partitioned merge preserves each group's guarantee on
    /// workloads spanning all groups.
    #[test]
    fn partitioned_merge_groups_hold(
        seed in 0u64..10_000,
        sched in 0u64..10_000,
        updates in 10usize..50,
    ) {
        let spec = WorkloadSpec {
            seed,
            relations: 4,
            updates,
            key_domain: 5,
            delete_percent: 25,
            multi_percent: 0,
        };
        let w = generate(&spec);
        let config = SimConfig {
            seed: sched,
            partition: true,
            ..SimConfig::default()
        };
        let b = SimBuilder::new(config);
        let b = install_relations(b, 4);
        let (b, _) = install_views(b, ViewSuite::DisjointCopies { count: 4 }, ManagerKind::Complete);
        let report = b.workload(w.txns).run().expect("runs");
        prop_assert_eq!(report.group_views.len(), 4);
        Oracle::new(&report).unwrap().assert_ok();
    }

    /// Aggregate views under complete managers stay MVC-complete.
    #[test]
    fn aggregates_mvc_complete(
        seed in 0u64..10_000,
        sched in 0u64..10_000,
        updates in 10usize..40,
    ) {
        let report = run_suite(
            seed, sched, 2, updates, 30, 3,
            ViewSuite::Aggregates { count: 2 },
            ManagerKind::Complete,
            CommitPolicy::DependencyAware,
        );
        Oracle::new(&report).unwrap().assert_ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 20,
        .. ProptestConfig::default()
    })]

    /// ECA managers (eager compensating queries over current-state-only
    /// sources, ref \[16\]) are complete — SPA coordinates them and the
    /// oracle certifies MVC completeness under any interleaving.
    #[test]
    fn spa_eca_managers_mvc_complete(
        seed in 0u64..10_000,
        sched in 0u64..10_000,
        updates in 10usize..50,
        deletes in 0u8..50,
        weight in 2u32..10,
    ) {
        let report = run_suite(
            seed, sched, 3, updates, deletes, weight,
            ViewSuite::OverlappingChain { count: 2 },
            ManagerKind::Eca,
            CommitPolicy::DependencyAware,
        );
        prop_assert_eq!(report.guarantees[0], ConsistencyLevel::Complete);
        Oracle::new(&report).unwrap().assert_ok();
    }

    /// Self-maintaining managers (auxiliary base copies, refs \[4, 11\])
    /// are complete without any source queries.
    #[test]
    fn spa_selfmaint_managers_mvc_complete(
        seed in 0u64..10_000,
        sched in 0u64..10_000,
        updates in 10usize..60,
        deletes in 0u8..50,
        weight in 2u32..10,
    ) {
        let report = run_suite(
            seed, sched, 3, updates, deletes, weight,
            ViewSuite::OverlappingChain { count: 2 },
            ManagerKind::SelfMaintaining,
            CommitPolicy::DependencyAware,
        );
        prop_assert_eq!(report.guarantees[0], ConsistencyLevel::Complete);
        Oracle::new(&report).unwrap().assert_ok();
    }

    /// A mix of all three complete-manager strategies (MVCC, ECA,
    /// self-maintaining) coordinates under one SPA merge process.
    #[test]
    fn mixed_complete_strategies_under_spa(
        seed in 0u64..10_000,
        sched in 0u64..10_000,
        updates in 10usize..40,
    ) {
        mixed_complete_strategies_body(seed, sched, updates)?;
    }
}

fn mixed_complete_strategies_body(
    seed: u64,
    sched: u64,
    updates: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    {
        use mvc_repro::prelude::*;
        use mvc_repro::whips::workload::{install_relations, rel_name};
        let config = SimConfig {
            seed: sched,
            inject_weight: 5,
            ..SimConfig::default()
        };
        let b = SimBuilder::new(config);
        let mut b = install_relations(b, 3);
        // three managers over overlapping joins / copies
        let v1 = ViewDef::builder("V1")
            .from(rel_name(0).as_str())
            .from(rel_name(1).as_str())
            .join_on("R0.k1", "R1.k1")
            .build(b.catalog())
            .unwrap();
        let v2 = ViewDef::builder("V2")
            .from(rel_name(1).as_str())
            .from(rel_name(2).as_str())
            .join_on("R1.k2", "R2.k2")
            .build(b.catalog())
            .unwrap();
        let v3 = ViewDef::builder("V3")
            .from(rel_name(2).as_str())
            .build(b.catalog())
            .unwrap();
        b = b
            .view(ViewId(1), v1, ManagerKind::Eca)
            .view(ViewId(2), v2, ManagerKind::SelfMaintaining)
            .view(ViewId(3), v3, ManagerKind::Complete);
        let spec = WorkloadSpec {
            seed,
            relations: 3,
            updates,
            key_domain: 5,
            delete_percent: 30,
            multi_percent: 0,
        };
        let w = mvc_repro::whips::workload::generate(&spec);
        let report = b.workload(w.txns).run().expect("runs");
        prop_assert_eq!(report.guarantees[0], ConsistencyLevel::Complete);
        Oracle::new(&report).unwrap().assert_ok();
    }
    Ok(())
}

/// Pinned literal replays of the two regression seeds upstream proptest
/// once recorded in a `prop_mvc.proptest-regressions` file. That file is
/// gone: its `cc` entries pinned proptest's own RNG, which the vendored
/// proptest never reads. These tests pin the *shrunk parameter values*
/// directly against every property with a matching shape instead, so
/// the cases re-run under any proptest implementation.
///
/// Determination (PR 1): the original failing workloads are not
/// replayable here — the `cc` entries were recorded under upstream
/// proptest's ChaCha RNG, while the vendored stub RNG derives a
/// different stream from the same seed. The shrunk values below all
/// pass, and an exhaustive review of SPA/PA, the commit scheduler, the
/// VUT, and the oracle's witness-cut check (plus 284k randomized sweep
/// cases across every property family, see `fuzz_hunt`) surfaced no
/// defect on either side. These literal pins stay checked in as
/// regression tripwires.
mod pinned_regressions {
    use super::*;

    // cc 89cb09… shrank to: seed = 68, sched = 0, updates = 25
    const SEED_A: u64 = 68;
    const SCHED_A: u64 = 0;
    const UPDATES_A: usize = 25;

    // cc 7cd16d… shrank to: seed = 248, sched = 0, updates = 40,
    //                       deletes = 10, weight = 2
    const SEED_B: u64 = 248;
    const SCHED_B: u64 = 0;
    const UPDATES_B: usize = 40;
    const DELETES_B: u8 = 10;
    const WEIGHT_B: u32 = 2;

    #[test]
    fn pinned_partitioned_merge_groups_hold() {
        let spec = WorkloadSpec {
            seed: SEED_A,
            relations: 4,
            updates: UPDATES_A,
            key_domain: 5,
            delete_percent: 25,
            multi_percent: 0,
        };
        let w = generate(&spec);
        let config = SimConfig {
            seed: SCHED_A,
            partition: true,
            ..SimConfig::default()
        };
        let b = SimBuilder::new(config);
        let b = install_relations(b, 4);
        let (b, _) = install_views(
            b,
            ViewSuite::DisjointCopies { count: 4 },
            ManagerKind::Complete,
        );
        let report = b.workload(w.txns).run().expect("runs");
        assert_eq!(report.group_views.len(), 4);
        Oracle::new(&report).unwrap().assert_ok();
    }

    #[test]
    fn pinned_aggregates_mvc_complete() {
        let report = run_suite(
            SEED_A,
            SCHED_A,
            2,
            UPDATES_A,
            30,
            3,
            ViewSuite::Aggregates { count: 2 },
            ManagerKind::Complete,
            CommitPolicy::DependencyAware,
        );
        Oracle::new(&report).unwrap().assert_ok();
    }

    #[test]
    fn pinned_mixed_complete_strategies() {
        mixed_complete_strategies_body(SEED_A, SCHED_A, UPDATES_A).unwrap();
    }

    #[test]
    fn pinned_spa_complete_managers() {
        let report = run_suite(
            SEED_B,
            SCHED_B,
            3,
            UPDATES_B,
            DELETES_B,
            WEIGHT_B,
            ViewSuite::OverlappingChain { count: 2 },
            ManagerKind::Complete,
            CommitPolicy::DependencyAware,
        );
        assert_eq!(report.guarantees[0], ConsistencyLevel::Complete);
        Oracle::new(&report).unwrap().assert_ok();
    }

    #[test]
    fn pinned_pa_strobe_managers() {
        let report = run_suite(
            SEED_B,
            SCHED_B,
            3,
            UPDATES_B,
            DELETES_B,
            WEIGHT_B,
            ViewSuite::OverlappingChain { count: 2 },
            ManagerKind::Strobe,
            CommitPolicy::DependencyAware,
        );
        assert_eq!(report.guarantees[0], ConsistencyLevel::Strong);
        Oracle::new(&report).unwrap().assert_ok();
    }

    #[test]
    fn pinned_spa_eca_managers() {
        let report = run_suite(
            SEED_B,
            SCHED_B,
            3,
            UPDATES_B,
            DELETES_B,
            WEIGHT_B,
            ViewSuite::OverlappingChain { count: 2 },
            ManagerKind::Eca,
            CommitPolicy::DependencyAware,
        );
        assert_eq!(report.guarantees[0], ConsistencyLevel::Complete);
        Oracle::new(&report).unwrap().assert_ok();
    }

    #[test]
    fn pinned_spa_selfmaint_managers() {
        let report = run_suite(
            SEED_B,
            SCHED_B,
            3,
            UPDATES_B,
            DELETES_B,
            WEIGHT_B,
            ViewSuite::OverlappingChain { count: 2 },
            ManagerKind::SelfMaintaining,
            CommitPolicy::DependencyAware,
        );
        assert_eq!(report.guarantees[0], ConsistencyLevel::Complete);
        Oracle::new(&report).unwrap().assert_ok();
    }
}
