//! End-to-end runs on the threaded runtime (real concurrency, crossbeam
//! channels), validated by the same consistency oracle as the simulator.

use mvc_repro::prelude::*;
use mvc_repro::whips::workload::{generate, install_relations, install_views};
use mvc_repro::whips::{ThreadedBuilder, ViewSuite, WorkloadSpec};
use std::time::Duration;

fn threaded_run(
    kind: ManagerKind,
    suite: ViewSuite,
    relations: usize,
    updates: usize,
    config: ThreadedConfig,
    seed: u64,
) -> mvc_repro::whips::SimReport {
    let spec = WorkloadSpec {
        seed,
        relations,
        updates,
        key_domain: 5,
        delete_percent: 25,
        multi_percent: 0,
    };
    let w = generate(&spec);
    let b = ThreadedBuilder::new(config);
    let b = install_relations(b, relations);
    let (b, _) = install_views(b, suite, kind);
    let (report, _wall) = b.workload(w.txns).run().expect("threaded run");
    report
}

#[test]
fn threaded_complete_spa_consistent() {
    let config = ThreadedConfig {
        record_snapshots: true,
        ..ThreadedConfig::default()
    };
    let report = threaded_run(
        ManagerKind::Complete,
        ViewSuite::OverlappingChain { count: 2 },
        3,
        60,
        config,
        11,
    );
    assert_eq!(report.guarantees[0], ConsistencyLevel::Complete);
    Oracle::new(&report).unwrap().assert_ok();
}

#[test]
fn threaded_strobe_with_delays_consistent() {
    // Query delay widens the intertwining window under real concurrency.
    let config = ThreadedConfig {
        query_delay: Duration::from_micros(200),
        commit_delay: Duration::from_micros(50),
        record_snapshots: true,
        ..ThreadedConfig::default()
    };
    let report = threaded_run(
        ManagerKind::Strobe,
        ViewSuite::OverlappingChain { count: 2 },
        3,
        60,
        config,
        23,
    );
    assert_eq!(report.guarantees[0], ConsistencyLevel::Strong);
    let stats = &report.merge_stats[0];
    assert!(stats.actions_received > 0);
    Oracle::new(&report).unwrap().assert_ok();
}

#[test]
fn threaded_partitioned_scaling_configuration() {
    let config = ThreadedConfig {
        partition: true,
        record_snapshots: true,
        ..ThreadedConfig::default()
    };
    let report = threaded_run(
        ManagerKind::Complete,
        ViewSuite::DisjointCopies { count: 4 },
        4,
        60,
        config,
        37,
    );
    assert_eq!(report.group_views.len(), 4);
    Oracle::new(&report).unwrap().assert_ok();
}

#[test]
fn threaded_matches_simulator_final_state() {
    // Same workload through both runtimes: identical final warehouse
    // contents (the histories differ, the destination cannot).
    let spec = WorkloadSpec {
        seed: 77,
        relations: 3,
        updates: 40,
        key_domain: 5,
        delete_percent: 25,
        multi_percent: 0,
    };
    let w1 = generate(&spec);
    let w2 = generate(&spec);

    let sim_report = {
        let b = SimBuilder::new(SimConfig {
            seed: 5,
            ..SimConfig::default()
        });
        let b = install_relations(b, 3);
        let (b, _) = install_views(
            b,
            ViewSuite::OverlappingChain { count: 2 },
            ManagerKind::Complete,
        );
        b.workload(w1.txns).run().expect("sim")
    };
    let thr_report = {
        let b = ThreadedBuilder::new(ThreadedConfig::default());
        let b = install_relations(b, 3);
        let (b, _) = install_views(
            b,
            ViewSuite::OverlappingChain { count: 2 },
            ManagerKind::Complete,
        );
        let (r, _) = b.workload(w2.txns).run().expect("threaded");
        r
    };
    for id in sim_report.registry.ids() {
        assert_eq!(
            sim_report.warehouse.view(id).unwrap(),
            thr_report.warehouse.view(id).unwrap(),
            "final contents of {id} differ between runtimes"
        );
    }
}

/// §1.1 customer inquiry under real concurrency: an MVCC reader queries
/// the checking/savings views while transfers commit; every cut it saw
/// must satisfy the money-conservation invariant (reads are atomic
/// multi-view snapshots and commits are coordinated) and certify against
/// the committed history. Unsharded and unpartitioned: VC and VS share no
/// base relation, so they would fall into different §6.1 groups, across
/// which the paper promises nothing.
#[test]
fn concurrent_reader_never_sees_torn_transfers() {
    use mvc_repro::source::WriteOp;
    let config = ThreadedConfig {
        readers: 1,
        commit_delay: Duration::from_micros(100),
        record_snapshots: false,
        ..ThreadedConfig::default()
    };
    let mut b = ThreadedBuilder::new(config)
        .relation(SourceId(0), "checking", Schema::ints(&["cust", "bal"]))
        .relation(SourceId(0), "savings", Schema::ints(&["cust", "bal"]));
    let vc = ViewDef::builder("VC")
        .from("checking")
        .build(b.catalog())
        .unwrap();
    let vs = ViewDef::builder("VS")
        .from("savings")
        .build(b.catalog())
        .unwrap();
    b = b
        .view(ViewId(1), vc, ManagerKind::Complete)
        .view(ViewId(2), vs, ManagerKind::Complete);
    let mut txns = vec![mvc_repro::whips::WorkloadTxn {
        source: SourceId(0),
        writes: vec![
            WriteOp::insert("checking", tuple![1, 1000]),
            WriteOp::insert("savings", tuple![1, 1000]),
        ],
        global: true,
    }];
    let (mut c_bal, mut s_bal) = (1000i64, 1000i64);
    for _ in 0..30 {
        let (nc, ns) = (c_bal - 50, s_bal + 50);
        txns.push(mvc_repro::whips::WorkloadTxn {
            source: SourceId(0),
            writes: vec![
                WriteOp::delete("checking", tuple![1, c_bal]),
                WriteOp::insert("checking", tuple![1, nc]),
                WriteOp::delete("savings", tuple![1, s_bal]),
                WriteOp::insert("savings", tuple![1, ns]),
            ],
            global: true,
        });
        c_bal = nc;
        s_bal = ns;
    }
    let (report, _wall) = b.workload(txns).run().unwrap();
    let oracle = Oracle::new(&report).unwrap();
    oracle.assert_ok();
    oracle.check_reads().expect("every observed cut certifies");
    let commits = report.warehouse.commit_count();
    assert!(
        report
            .read_observations
            .iter()
            .any(|o| 0 < o.cut.watermark && o.cut.watermark < commits),
        "no read landed while transfers were still committing"
    );
    let balance = |r: &Relation| -> i64 { r.iter().map(|t| t.get(1).as_i64().unwrap()).sum() };
    for o in &report.read_observations {
        let views = &o.cut.views;
        let total = balance(&views[&ViewId(1)]) + balance(&views[&ViewId(2)]);
        assert!(
            total == 2000 || total == 0,
            "torn transfer observed by concurrent reader: total={total}"
        );
    }
}

/// One commit section, one set of transitions, sixteen hosts' worth of
/// configuration: shards × commit latency × MVCC readers × WAL (group
/// commit on; checkpoint rounds on wherever the runtime accepts them).
/// Every cell must certify — per-group MVC, every observed cut, and the
/// ticket linearization when sharded — and every unsharded log must
/// crash-recover to the run's own final state.
#[test]
fn threaded_configuration_cross_product_certifies() {
    let dir = std::env::temp_dir().join(format!("mvc-thr-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = WorkloadSpec {
        seed: 51,
        relations: 4,
        updates: 40,
        key_domain: 5,
        delete_percent: 25,
        multi_percent: 0,
    };
    let mut cells = Vec::new();
    for shards in [1, 2] {
        for commit_delay in [Duration::ZERO, Duration::from_micros(50)] {
            for readers in [0, 2] {
                cells.extend([false, true].map(|wal| (shards, commit_delay, readers, wal)));
            }
        }
    }
    for (n, (shards, commit_delay, readers, wal)) in cells.into_iter().enumerate() {
        let cell = format!("shards={shards} delay={commit_delay:?} readers={readers} wal={wal}");
        let path = dir.join(format!("cell{n}.wal"));
        let checkpoints = if shards == 1 && commit_delay.is_zero() {
            5
        } else {
            0
        };
        let config = ThreadedConfig {
            partition: true,
            shards,
            commit_delay,
            readers,
            reader_think_time: Duration::from_micros(20),
            record_snapshots: true,
            durability: wal.then(|| {
                DurabilityConfig::new(&path)
                    .with_fsync_every(64)
                    .with_fsync_deadline(Duration::from_micros(200))
                    .with_checkpoint_every(checkpoints)
            }),
            ..ThreadedConfig::default()
        };
        let w = generate(&spec);
        let b = install_relations(ThreadedBuilder::new(config), spec.relations);
        let (b, ids) = install_views(
            b,
            ViewSuite::DisjointCopies { count: 4 },
            ManagerKind::Complete,
        );
        let registry = b.registry().clone();
        let (report, wall) = b
            .workload(w.txns)
            .run()
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
        assert_eq!(wall.in_flight_at_end, 0, "{cell}");
        let oracle = Oracle::new(&report).unwrap();
        oracle.assert_ok();
        let cert = oracle
            .check_reads()
            .unwrap_or_else(|e| panic!("{cell}: {e:?}"));
        assert_eq!(cert.observations, report.read_observations.len(), "{cell}");
        assert_eq!(report.shard_plane.is_some(), shards == 2, "{cell}");
        if shards == 2 {
            oracle
                .check_sharded()
                .unwrap_or_else(|e| panic!("{cell}: {e:?}"));
        } else if wal {
            let r_config = SimConfig {
                partition: true,
                record_snapshots: true,
                durability: Some(DurabilityConfig::new(&path)),
                ..SimConfig::default()
            };
            let stitched = recover_and_run(r_config, report.cluster.clone(), &registry, Vec::new())
                .unwrap_or_else(|e| panic!("{cell}: recovery failed: {e}"));
            Oracle::new(&stitched).unwrap().assert_ok();
            assert_eq!(
                stitched.warehouse.read(&ids),
                report.warehouse.read(&ids),
                "{cell}: recovery converges to the run's final state"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
