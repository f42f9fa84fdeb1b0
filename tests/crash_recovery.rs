//! Crash–recover–finish, machine-checked: a durable run is killed at an
//! injected WAL crash point, a fresh pipeline is rebuilt from the log,
//! the workload remainder is injected, and the *stitched* history —
//! pre-crash commits restored from the WAL, post-crash commits appended
//! by the resumed run — is handed to the consistency oracle. MVC
//! completeness / strong consistency must survive the crash for both SPA
//! and PA, with zero duplicate warehouse commits.

use mvc_repro::durability::{WalError, WalReader, WalRecord};
use mvc_repro::prelude::*;
use mvc_repro::whips::workload::{
    generate, install_relations, install_views, install_views_mixed, WorkloadSpec,
};
use mvc_repro::whips::{recover_and_run, RecoveryError, SimReport, WorkloadTxn};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn wal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mvc-crash-{}-{tag}.wal", std::process::id()))
}

/// Remove the log's whole segment chain (`path` and `path.seg{k}`).
fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    for k in 1..64 {
        let mut seg = path.as_os_str().to_owned();
        seg.push(format!(".seg{k}"));
        let _ = std::fs::remove_file(seg);
    }
}

fn spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        seed,
        relations: 3,
        updates: 24,
        key_domain: 6,
        delete_percent: 25,
        multi_percent: 0,
    }
}

/// Two overlapping join views over a three-relation chain, manager kinds
/// assigned round-robin from `kinds`.
fn builder_kinds(config: SimConfig, kinds: &[ManagerKind]) -> SimBuilder {
    let b = SimBuilder::new(config);
    let b = install_relations(b, 3);
    let (b, _) = install_views_mixed(b, ViewSuite::OverlappingChain { count: 2 }, kinds);
    b
}

fn builder(config: SimConfig) -> SimBuilder {
    builder_kinds(config, &[ManagerKind::Complete])
}

/// The acceptance bar for any (possibly stitched) report: the oracle
/// certifies the configured MVC level, the commit log stays aligned 1:1
/// with the warehouse history, and no `(group, seq)` commits twice.
fn certify(report: &SimReport, txns: usize) {
    Oracle::new(report).unwrap().assert_ok();
    assert_eq!(report.commit_log.len(), report.warehouse.history().len());
    let mut seen = BTreeSet::new();
    for e in &report.commit_log {
        assert!(
            seen.insert((e.group, e.seq)),
            "duplicate warehouse commit: group {} seq {:?}",
            e.group,
            e.seq
        );
    }
    assert_eq!(
        report.cluster.history().len(),
        txns,
        "every workload transaction reached the sources exactly once"
    );
}

/// Kill the pipeline at a spread of WAL positions; after each crash,
/// recover and finish, then certify the stitched history. `kinds` picks
/// the manager kinds (round-robin over the two chain views), so the same
/// sweep exercises watermark re-initialization (Complete-class kinds) and
/// delivery replay (Strobe/Convergent).
fn crash_sweep_kinds(
    algorithm: Option<MergeAlgorithm>,
    kinds: &[ManagerKind],
    tag: &str,
    shape: impl Fn(DurabilityConfig) -> DurabilityConfig,
) {
    let w = generate(&spec(11));
    let path = wal_path(tag);
    let config = SimConfig {
        seed: 3,
        algorithm,
        durability: Some(shape(DurabilityConfig::new(&path))),
        ..SimConfig::default()
    };

    // Baseline durable run without a fault: sizes the log and must be
    // oracle-clean itself. `open_log` stitches the segment chain, so the
    // sweep also covers rotated (and possibly compacted) logs; kill
    // points count *appended* records, so they stay comparable even when
    // compaction has truncated the on-disk prefix.
    let b = builder_kinds(config.clone(), kinds).workload(w.txns.clone());
    let registry = b.registry().clone();
    let report = match b.run_durable().unwrap() {
        DurableOutcome::Completed(r) => r,
        DurableOutcome::Crashed { .. } => unreachable!("no fault configured"),
    };
    certify(&report, w.txns.len());
    let log = WalReader::open_log(&path).unwrap();
    let total = log.base + log.records.len() as u64;
    assert!(total > 20, "workload too small to crash mid-merge");

    let step = (total / 6).max(1);
    let mut kill = 1;
    while kill <= total {
        let fault = FaultSpec {
            kill_at_record: kill,
            torn_tail_bytes: 0,
            mode: KillMode::Error,
        };
        let mut cfg = config.clone();
        cfg.durability = Some(shape(DurabilityConfig::new(&path)).with_fault(fault));
        match builder_kinds(cfg.clone(), kinds)
            .workload(w.txns.clone())
            .run_durable()
            .unwrap()
        {
            DurableOutcome::Crashed { cluster, injected } => {
                let remaining: Vec<WorkloadTxn> = w.txns[injected..].to_vec();
                let stitched = recover_and_run(cfg, cluster, &registry, remaining)
                    .unwrap_or_else(|e| panic!("recovery at kill point {kill} failed: {e}"));
                certify(&stitched, w.txns.len());
            }
            DurableOutcome::Completed(r) => certify(&r, w.txns.len()),
        }
        kill += step;
    }
    cleanup(&path);
}

fn crash_sweep(
    algorithm: MergeAlgorithm,
    tag: &str,
    shape: impl Fn(DurabilityConfig) -> DurabilityConfig,
) {
    crash_sweep_kinds(Some(algorithm), &[ManagerKind::Complete], tag, shape);
}

#[test]
fn spa_crash_recover_finish_certifies() {
    crash_sweep(MergeAlgorithm::Spa, "spa", |d| d);
}

#[test]
fn pa_crash_recover_finish_certifies() {
    crash_sweep(MergeAlgorithm::Pa, "pa", |d| d);
}

/// With periodic checkpoints, recovery restores the newest checkpoint and
/// replays only the log tail — same certification bar, for the SPA engine
/// and for a PA engine restored from a checkpoint.
#[test]
fn checkpointed_recovery_replays_only_the_tail() {
    crash_sweep(MergeAlgorithm::Spa, "ckpt", |d| d.with_checkpoint_every(2));
    crash_sweep(MergeAlgorithm::Pa, "ckpt-pa", |d| {
        d.with_checkpoint_every(3)
    });
}

/// Without rotation a checkpoint has no closed segment to unlink, so it
/// forces no flush of its own: the log issues one fsync per full
/// `fsync_every` window plus the final one, and nothing else.
#[test]
fn unrotated_checkpoints_add_no_fsyncs() {
    let w = generate(&spec(11));
    let path = wal_path("fsyncs");
    let config = SimConfig {
        seed: 3,
        algorithm: Some(MergeAlgorithm::Spa),
        durability: Some(
            DurabilityConfig::new(&path)
                .with_fsync_every(32)
                .with_checkpoint_every(2),
        ),
        ..SimConfig::default()
    };
    let report = match builder(config).workload(w.txns).run_durable().unwrap() {
        DurableOutcome::Completed(r) => r,
        DurableOutcome::Crashed { .. } => unreachable!("no fault configured"),
    };
    let records = WalReader::open_log(&path).unwrap().records;
    assert!(
        records
            .iter()
            .any(|r| matches!(r, WalRecord::Checkpoint(_))),
        "the run wrote checkpoints"
    );
    // 225 records, 12 of them checkpoints.
    assert_eq!(report.metrics.wal_fsyncs, 8);
    assert_eq!((records.len() as u64).div_ceil(32), 8);
    cleanup(&path);
}

/// Rotation without compaction (no checkpoints): the log is a segment
/// chain, records straddle segment boundaries, and recovery stitches the
/// chain back into one absolute-indexed stream.
#[test]
fn rotated_log_recovers_across_segment_boundaries() {
    crash_sweep(MergeAlgorithm::Pa, "rot", |d| d.with_rotate_every(7));
}

/// Rotation *plus* checkpoint-anchored compaction: early segments are
/// unlinked while the run is still going, so recovery starts from a log
/// whose base index is far from zero. Every kill point in the sweep must
/// still recover from the compacted chain.
#[test]
fn rotated_compacted_log_recovers_across_boundaries() {
    crash_sweep(MergeAlgorithm::Spa, "rotck", |d| {
        d.with_rotate_every(6).with_checkpoint_every(2)
    });
}

/// Watermark-class kinds beyond `Complete`: ECA and periodic-refresh
/// managers recover by fresh re-initialization at the install watermark.
#[test]
fn eca_and_periodic_managers_crash_recover() {
    crash_sweep_kinds(
        None,
        &[ManagerKind::Eca, ManagerKind::Periodic { period: 3 }],
        "ecaper",
        |d| d.with_checkpoint_every(3),
    );
}

/// The remaining watermark-class kinds: exact batches of 2 and
/// self-maintaining (auxiliary base copies, no source queries).
#[test]
fn complete_n_and_self_maintaining_managers_crash_recover() {
    crash_sweep_kinds(
        None,
        &[
            ManagerKind::CompleteN { n: 2 },
            ManagerKind::SelfMaintaining,
        ],
        "cnsm",
        |d| d,
    );
}

/// Strobe managers carry compensation bookkeeping that no watermark can
/// reconstruct: recovery replays the logged delivery sequence from
/// genesis, then requeues unreleased action lists and unanswered queries.
#[test]
fn strobe_managers_crash_recover_by_delivery_replay() {
    crash_sweep_kinds(None, &[ManagerKind::Strobe], "strobe", |d| d);
}

/// Convergent managers accumulate estimate drift between correction
/// passes — also delivery-replayed. The oracle certifies convergence of
/// the stitched run.
#[test]
fn convergent_managers_crash_recover_by_delivery_replay() {
    crash_sweep_kinds(
        None,
        &[ManagerKind::Convergent {
            correction_every: 4,
        }],
        "conv",
        |d| d,
    );
}

/// A mixed registry: one delivery-replay view (Strobe) next to one
/// watermark view (Complete) — the two recovery classes compose in a
/// single rebuild.
#[test]
fn mixed_replay_and_watermark_registry_crash_recovers() {
    crash_sweep_kinds(
        None,
        &[ManagerKind::Strobe, ManagerKind::Complete],
        "mixed",
        |d| d,
    );
}

/// Compaction is anchored at the checkpoint's minimum component anchor:
/// after a run with aggressive rotation + checkpointing, (a) a prefix was
/// really unlinked, (b) segment 0 is gone from disk, (c) the newest
/// retained checkpoint's anchor is still inside the retained log — the
/// truncation never outran what recovery needs — and (d) total replay of
/// the compacted chain reproduces a certified history.
#[test]
fn compaction_truncates_prefix_but_never_past_the_anchor() {
    let w = generate(&spec(41));
    let path = wal_path("compact");
    let config = SimConfig {
        seed: 8,
        algorithm: Some(MergeAlgorithm::Pa),
        durability: Some(
            DurabilityConfig::new(&path)
                .with_rotate_every(5)
                .with_checkpoint_every(2),
        ),
        ..SimConfig::default()
    };
    let b = builder(config.clone()).workload(w.txns.clone());
    let registry = b.registry().clone();
    let report = match b.run_durable().unwrap() {
        DurableOutcome::Completed(r) => r,
        DurableOutcome::Crashed { .. } => unreachable!("no fault configured"),
    };
    certify(&report, w.txns.len());

    let log = WalReader::open_log(&path).unwrap();
    assert!(log.base > 0, "checkpoints compacted away a prefix");
    assert!(!path.exists(), "segment 0 was unlinked by compaction");
    let ck = log
        .records
        .iter()
        .rev()
        .find_map(|r| match r {
            WalRecord::Checkpoint(ck) => Some(ck),
            _ => None,
        })
        .expect("a checkpoint survives compaction");
    assert!(
        ck.min_anchor() >= log.base,
        "the anchor ({}) must not be truncated below the log base ({})",
        ck.min_anchor(),
        log.base
    );

    let replayed = recover_and_run(config, report.cluster.clone(), &registry, Vec::new()).unwrap();
    certify(&replayed, w.txns.len());
    cleanup(&path);
}

/// Delivery-replay views need the log from genesis, so the sim disables
/// compaction when one is registered; recovery refuses a *foreign*
/// compacted log (base > 0) for such a registry with a typed error
/// instead of silently replaying a truncated delivery sequence.
#[test]
fn compacted_log_with_replay_views_is_a_typed_error() {
    let w = generate(&spec(41));
    let path = wal_path("compact-replay");

    // Produce a compacted (base > 0) log with Complete managers.
    let config = SimConfig {
        seed: 8,
        algorithm: Some(MergeAlgorithm::Pa),
        durability: Some(
            DurabilityConfig::new(&path)
                .with_rotate_every(5)
                .with_checkpoint_every(2),
        ),
        ..SimConfig::default()
    };
    let b = builder(config.clone()).workload(w.txns.clone());
    let report = match b.run_durable().unwrap() {
        DurableOutcome::Completed(r) => r,
        DurableOutcome::Crashed { .. } => unreachable!("no fault configured"),
    };
    assert!(WalReader::open_log(&path).unwrap().base > 0);

    // Hand that log to a registry containing a Strobe view.
    let strobe = builder_kinds(
        config.clone(),
        &[ManagerKind::Strobe, ManagerKind::Complete],
    )
    .registry()
    .clone();
    let Err(err) = recover_and_run(config, report.cluster.clone(), &strobe, Vec::new()) else {
        panic!("a compacted log must not feed delivery replay");
    };
    assert!(
        matches!(err, RecoveryError::CompactedDeliveryLog { .. }),
        "expected CompactedDeliveryLog, got: {err}"
    );
    cleanup(&path);
}

/// A Strobe run's log really is kept from genesis: the sim turns
/// compaction off even when rotation + checkpointing are configured.
#[test]
fn replay_views_pin_the_log_to_genesis() {
    let w = generate(&spec(41));
    let path = wal_path("pinned");
    let config = SimConfig {
        seed: 8,
        algorithm: None,
        durability: Some(
            DurabilityConfig::new(&path)
                .with_rotate_every(5)
                .with_checkpoint_every(2),
        ),
        ..SimConfig::default()
    };
    let b = builder_kinds(config.clone(), &[ManagerKind::Strobe]).workload(w.txns.clone());
    let registry = b.registry().clone();
    let report = match b.run_durable().unwrap() {
        DurableOutcome::Completed(r) => r,
        DurableOutcome::Crashed { .. } => unreachable!("no fault configured"),
    };
    let log = WalReader::open_log(&path).unwrap();
    assert_eq!(log.base, 0, "compaction stays off for replay views");
    assert!(path.exists(), "segment 0 survives for delivery replay");
    let replayed = recover_and_run(config, report.cluster.clone(), &registry, Vec::new()).unwrap();
    certify(&replayed, w.txns.len());
    cleanup(&path);
}

/// Delayed group fsync plus a torn final write: the log loses a strict
/// suffix, recovery re-derives the lost transitions from the sources.
#[test]
fn delayed_fsync_and_torn_tail_lose_only_a_suffix() {
    crash_sweep(MergeAlgorithm::Spa, "torn", |d| d.with_fsync_every(4));

    // And with an explicitly torn tail at one mid-log point.
    let w = generate(&spec(5));
    let path = wal_path("torn-tail");
    let config =
        SimConfig {
            seed: 9,
            algorithm: Some(MergeAlgorithm::Pa),
            durability: Some(DurabilityConfig::new(&path).with_fsync_every(3).with_fault(
                FaultSpec {
                    kill_at_record: 40,
                    torn_tail_bytes: 5,
                    mode: KillMode::Error,
                },
            )),
            ..SimConfig::default()
        };
    let b = builder(config.clone()).workload(w.txns.clone());
    let registry = b.registry().clone();
    match b.run_durable().unwrap() {
        DurableOutcome::Crashed { cluster, injected } => {
            let stitched =
                recover_and_run(config, cluster, &registry, w.txns[injected..].to_vec()).unwrap();
            certify(&stitched, w.txns.len());
        }
        DurableOutcome::Completed(_) => panic!("kill point 40 should fire"),
    }
    let _ = std::fs::remove_file(&path);
}

/// A kill point past the end of the log never fires: the run completes.
#[test]
fn kill_point_beyond_log_end_completes() {
    let w = generate(&spec(2));
    let path = wal_path("nofire");
    let config = SimConfig {
        seed: 1,
        algorithm: Some(MergeAlgorithm::Spa),
        durability: Some(DurabilityConfig::new(&path).with_fault(FaultSpec {
            kill_at_record: 1_000_000,
            torn_tail_bytes: 0,
            mode: KillMode::Error,
        })),
        ..SimConfig::default()
    };
    match builder(config)
        .workload(w.txns.clone())
        .run_durable()
        .unwrap()
    {
        DurableOutcome::Completed(r) => certify(&r, w.txns.len()),
        DurableOutcome::Crashed { .. } => panic!("kill point beyond log end fired"),
    }
    let _ = std::fs::remove_file(&path);
}

/// Recovery is total, not merely post-crash: replaying the WAL of a run
/// that completed cleanly (empty remainder) reproduces an oracle-clean
/// history.
#[test]
fn recovery_of_a_completed_log_is_total() {
    let w = generate(&spec(17));
    let path = wal_path("total");
    let config = SimConfig {
        seed: 4,
        algorithm: Some(MergeAlgorithm::Pa),
        durability: Some(DurabilityConfig::new(&path)),
        ..SimConfig::default()
    };
    let b = builder(config.clone()).workload(w.txns.clone());
    let registry = b.registry().clone();
    let report = match b.run_durable().unwrap() {
        DurableOutcome::Completed(r) => r,
        DurableOutcome::Crashed { .. } => unreachable!("no fault configured"),
    };
    let replayed = recover_and_run(config, report.cluster.clone(), &registry, Vec::new()).unwrap();
    certify(&replayed, w.txns.len());
    assert_eq!(
        replayed.warehouse.history().len(),
        report.warehouse.history().len(),
        "replay reproduces every commit"
    );
    let _ = std::fs::remove_file(&path);
}

/// The threaded runtime logs through the same WAL, and WAL faults there
/// model a dead disk under a live process (`Drop`):
/// the in-memory pipeline finishes while the log freezes at the crash
/// point. Recovery rebuilds a simulator from that prefix and replays the
/// cluster tail to a certified history.
#[test]
fn threaded_wal_prefix_recovers_on_the_simulator() {
    let w = generate(&spec(31));
    let path = wal_path("threaded");
    let t_config = ThreadedConfig {
        record_snapshots: true,
        durability: Some(DurabilityConfig::new(&path).with_fault(FaultSpec {
            kill_at_record: 25,
            torn_tail_bytes: 0,
            mode: KillMode::Drop,
        })),
        ..ThreadedConfig::default()
    };
    let b = ThreadedBuilder::new(t_config);
    let b = install_relations(b, 3);
    let (b, _) = install_views(
        b,
        ViewSuite::OverlappingChain { count: 2 },
        ManagerKind::Complete,
    );
    let registry = b.registry().clone();
    let (report, _wall) = b.workload(w.txns.clone()).run().unwrap();
    Oracle::new(&report).unwrap().assert_ok();

    let logged = WalReader::open_log(&path).unwrap().records.len();
    assert_eq!(logged, 24, "Drop fault freezes the log at the crash point");

    // Every transaction already reached the sources, so the remainder is
    // empty; the resumed run re-derives everything past the prefix from
    // the cluster tail.
    let r_config = SimConfig {
        record_snapshots: true,
        durability: Some(DurabilityConfig::new(&path)),
        ..SimConfig::default()
    };
    let stitched = recover_and_run(r_config, report.cluster.clone(), &registry, Vec::new())
        .unwrap_or_else(|e| panic!("threaded-log recovery failed: {e}"));
    certify(&stitched, w.txns.len());
    let ids: Vec<ViewId> = registry.ids().collect();
    assert_eq!(
        stitched.warehouse.read(&ids),
        report.warehouse.read(&ids),
        "recovered warehouse converges to the threaded run's final state"
    );
    let _ = std::fs::remove_file(&path);
}

/// Oracle sensitivity (fault harness turned on itself): flipping one byte
/// inside a WAL frame payload must surface as a typed `CorruptRecord` —
/// no panic, and no silent truncation past the corruption point.
#[test]
fn corrupted_record_is_a_typed_recovery_error() {
    let w = generate(&spec(23));
    let path = wal_path("corrupt");
    let config = SimConfig {
        seed: 6,
        algorithm: Some(MergeAlgorithm::Spa),
        durability: Some(DurabilityConfig::new(&path)),
        ..SimConfig::default()
    };
    let b = builder(config.clone()).workload(w.txns.clone());
    let registry = b.registry().clone();
    let report = match b.run_durable().unwrap() {
        DurableOutcome::Completed(r) => r,
        DurableOutcome::Crashed { .. } => unreachable!("no fault configured"),
    };

    // Flip one byte in the first frame's payload: 16 (segment header) +
    // 12 (frame header) + 2 lands safely inside the first record.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[16 + 12 + 2] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let Err(err) = recover_and_run(config, report.cluster.clone(), &registry, Vec::new()) else {
        panic!("a corrupt log must not recover silently");
    };
    match err {
        RecoveryError::Wal(WalError::CorruptRecord { index, offset }) => {
            assert_eq!(index, 0, "corruption is in the first record");
            assert_eq!(offset, 16, "frame offset points at the corrupt frame");
        }
        e => panic!("expected a typed CorruptRecord error, got: {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// Tentpole (c): the threaded committer coordinates checkpoint rounds —
/// each merge process and the integrator reply with a snapshot plus a
/// WAL anchor through their own FIFOs. A `Drop` fault freezes the log
/// mid-run; recovery must restore the newest threaded-written checkpoint,
/// replay only each component's tail past its anchor, and converge to
/// the threaded run's final state.
#[test]
fn threaded_checkpoint_round_recovers_from_a_drop_fault() {
    let w = generate(&spec(37));
    let path = wal_path("threaded-ck");
    let t_config = ThreadedConfig {
        record_snapshots: true,
        // Slight pacing interleaves commits (and so checkpoint rounds)
        // with injection instead of flooding every route first; the kill
        // point sits deep in the commit phase, after several rounds.
        pacing: std::time::Duration::from_micros(300),
        durability: Some(
            DurabilityConfig::new(&path)
                .with_checkpoint_every(2)
                .with_fault(FaultSpec {
                    kill_at_record: 180,
                    torn_tail_bytes: 0,
                    mode: KillMode::Drop,
                }),
        ),
        ..ThreadedConfig::default()
    };
    let b = ThreadedBuilder::new(t_config);
    let b = install_relations(b, 3);
    let (b, _) = install_views(
        b,
        ViewSuite::OverlappingChain { count: 2 },
        ManagerKind::Complete,
    );
    let registry = b.registry().clone();
    let (report, _wall) = b.workload(w.txns.clone()).run().unwrap();
    Oracle::new(&report).unwrap().assert_ok();

    let records = WalReader::open_log(&path).unwrap().records;
    assert!(
        records
            .iter()
            .any(|r| matches!(r, WalRecord::Checkpoint(_))),
        "the committer wrote at least one checkpoint before the disk died"
    );

    let r_config = SimConfig {
        record_snapshots: true,
        durability: Some(DurabilityConfig::new(&path).with_checkpoint_every(2)),
        ..SimConfig::default()
    };
    let stitched = recover_and_run(r_config, report.cluster.clone(), &registry, Vec::new())
        .unwrap_or_else(|e| panic!("threaded-checkpoint recovery failed: {e}"));
    certify(&stitched, w.txns.len());
    let ids: Vec<ViewId> = registry.ids().collect();
    assert_eq!(
        stitched.warehouse.read(&ids),
        report.warehouse.read(&ids),
        "recovery from the threaded checkpoint converges to the same state"
    );
    cleanup(&path);
}

/// Threaded VM threads journal their deliveries (`VmUpdateDelivered` /
/// `VmAnswerDelivered` / `VmFlushDelivered`) ahead of handling them, so
/// delivery-replay kinds recover from a threaded log exactly like a sim
/// log: rebuild the manager from genesis and re-feed the logged stream.
#[test]
fn threaded_strobe_deliveries_replay_from_the_log() {
    let w = generate(&spec(41));
    let path = wal_path("threaded-strobe");
    let t_config = ThreadedConfig {
        record_snapshots: true,
        durability: Some(DurabilityConfig::new(&path)),
        ..ThreadedConfig::default()
    };
    let b = ThreadedBuilder::new(t_config);
    let b = install_relations(b, 3);
    let (b, _) = install_views_mixed(
        b,
        ViewSuite::OverlappingChain { count: 2 },
        &[ManagerKind::Strobe],
    );
    let registry = b.registry().clone();
    let (report, _wall) = b.workload(w.txns.clone()).run().unwrap();
    Oracle::new(&report).unwrap().assert_ok();

    let records = WalReader::open_log(&path).unwrap().records;
    assert!(
        records
            .iter()
            .any(|r| matches!(r, WalRecord::VmUpdateDelivered { .. })),
        "threaded VM threads journal their deliveries"
    );

    let r_config = SimConfig {
        record_snapshots: true,
        durability: Some(DurabilityConfig::new(&path)),
        ..SimConfig::default()
    };
    let stitched = recover_and_run(r_config, report.cluster.clone(), &registry, Vec::new())
        .unwrap_or_else(|e| panic!("threaded strobe replay failed: {e}"));
    certify(&stitched, w.txns.len());
    cleanup(&path);
}

/// Group commit in the threaded runtime: with a large `fsync_every` and a
/// short `fsync_deadline`, committers park on the shared flush ticket and
/// one leader fsyncs for the whole window — the run stays fully
/// recoverable while issuing far fewer fsyncs than records.
#[test]
fn threaded_group_commit_batches_fsyncs_and_stays_recoverable() {
    let w = generate(&spec(43));
    let path = wal_path("threaded-group");
    let t_config = ThreadedConfig {
        record_snapshots: true,
        durability: Some(
            DurabilityConfig::new(&path)
                .with_fsync_every(1024)
                .with_fsync_deadline(std::time::Duration::from_millis(2)),
        ),
        ..ThreadedConfig::default()
    };
    let b = ThreadedBuilder::new(t_config);
    let b = install_relations(b, 3);
    let (b, _) = install_views(
        b,
        ViewSuite::OverlappingChain { count: 2 },
        ManagerKind::Complete,
    );
    let registry = b.registry().clone();
    let (report, _wall) = b.workload(w.txns.clone()).run().unwrap();
    Oracle::new(&report).unwrap().assert_ok();

    let records = WalReader::open_log(&path).unwrap().records.len() as u64;
    assert!(report.metrics.wal_fsyncs > 0, "the flush leader fsynced");
    assert!(
        report.metrics.wal_fsyncs < records,
        "group commit amortizes fsyncs below one per record ({} fsyncs / {records} records)",
        report.metrics.wal_fsyncs
    );

    let r_config = SimConfig {
        record_snapshots: true,
        durability: Some(DurabilityConfig::new(&path)),
        ..SimConfig::default()
    };
    let stitched = recover_and_run(r_config, report.cluster.clone(), &registry, Vec::new())
        .unwrap_or_else(|e| panic!("group-commit log recovery failed: {e}"));
    certify(&stitched, w.txns.len());
    let ids: Vec<ViewId> = registry.ids().collect();
    assert_eq!(
        stitched.warehouse.read(&ids),
        report.warehouse.read(&ids),
        "group-commit log recovery converges to the threaded run's state"
    );
    cleanup(&path);
}
