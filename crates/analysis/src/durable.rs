//! Durable exploration: crash–recovery certification at **every**
//! WAL-record prefix of **every** explored interleaving.
//!
//! The plain explorer ([`mod@crate::explore`]) proves the protocol safe
//! against scheduling nondeterminism; the crash-recovery suite proves
//! the durability layer safe against crash points of *one* schedule per
//! run. This module composes the two: each complete schedule the
//! explorer certifies is replayed on a WAL-journaling pipeline
//! ([`PipelineBuilder::replay_durable`]), and then, for every record
//! prefix `0..=N` of the resulting log, a crash at exactly that point is
//! simulated — the prefix is re-framed into a fresh log, handed to
//! [`mvc_whips::recover_and_run`], and the stitched history (restored
//! prefix + re-derived tail) is certified by the consistency oracle.
//!
//! The sources are assumed to survive the crash (stable storage on the
//! source side), so recovery re-derives everything past the prefix from
//! the cluster tail — the same model as the simulator's crash sweeps.

use crate::explore::{explore, ExploreConfig, ExploreOutcome};
use crate::pipeline::{PipelineBuilder, PipelineError};
use crate::schedule::ScheduleId;
use mvc_durability::{DurabilityConfig, WalReader, WalRecord, WalWriter};
use mvc_whips::{recover_and_run, Oracle, SimConfig, Verdict};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bounds for one durable exploration.
#[derive(Debug, Clone)]
pub struct DurableExploreConfig {
    /// Bounds for the schedule-enumeration phase (`collect` is forced on).
    pub explore: ExploreConfig,
    /// Scratch directory for the per-schedule WAL files; the files are
    /// removed as each schedule's sweep completes.
    pub scratch: PathBuf,
    /// Sweep stride: certify every `stride`-th record prefix (1 = every
    /// prefix). The empty prefix and the full log are always included.
    pub stride: usize,
}

impl Default for DurableExploreConfig {
    fn default() -> Self {
        DurableExploreConfig {
            explore: ExploreConfig::default(),
            scratch: std::env::temp_dir(),
            stride: 1,
        }
    }
}

/// One prefix that failed to recover or certify.
#[derive(Debug, Clone)]
pub struct PrefixFailure {
    /// The explored schedule whose log was cut.
    pub schedule: ScheduleId,
    /// Crash point: number of WAL records that survived.
    pub prefix: usize,
    pub detail: String,
}

/// Aggregate result of one durable exploration.
#[derive(Debug, Clone, Default)]
pub struct DurableExploreOutcome {
    /// The schedule-enumeration phase's own result (every complete
    /// schedule already oracle-certified crash-free).
    pub explore: ExploreOutcome,
    /// Schedules replayed durably and prefix-swept.
    pub schedules: u64,
    /// Crash points recovered and certified.
    pub certified_prefixes: u64,
    /// Crash points swept in total.
    pub prefixes: u64,
    pub failures: Vec<PrefixFailure>,
}

impl DurableExploreOutcome {
    /// Every explored schedule certified, and every crash point of every
    /// schedule recovered to a certified stitched history.
    pub fn all_certified(&self) -> bool {
        self.explore.all_certified()
            && self.failures.is_empty()
            && self.certified_prefixes == self.prefixes
    }
}

/// Re-frame the first `n` records into a fresh un-rotated log at `path`
/// — the on-disk image a crash at exactly that record boundary leaves.
fn write_prefix(
    records: &[WalRecord],
    n: usize,
    path: &std::path::Path,
) -> Result<(), PipelineError> {
    let _ = std::fs::remove_file(path);
    let io = |e: mvc_durability::WalError| PipelineError::Build(format!("prefix log: {e}"));
    let mut w = WalWriter::create(&DurabilityConfig::new(path)).map_err(io)?;
    for rec in &records[..n] {
        w.append(rec).map_err(io)?;
    }
    w.finalize().map_err(io)
}

/// The simulator configuration recovery resumes under — the pipeline's
/// own knobs, with snapshots on so every consistency level certifies.
fn recovery_config(builder: &PipelineBuilder, wal_path: &std::path::Path) -> SimConfig {
    let c = builder.config();
    SimConfig {
        commit_policy: c.commit_policy,
        algorithm: c.algorithm,
        partition: c.partition,
        tuple_relevance: c.tuple_relevance,
        record_snapshots: true,
        durability: Some(DurabilityConfig::new(wal_path)),
        ..SimConfig::default()
    }
}

/// Explore the builder's interleavings, then crash–recover–certify every
/// record prefix of every complete schedule's WAL.
///
/// Fails typed on setup errors (a broken applier configured, scratch not
/// writable); per-prefix recovery or certification failures are
/// *collected* in [`DurableExploreOutcome::failures`], not returned —
/// a sweep reports every bad crash point, not just the first.
pub fn explore_durably(
    builder: &PipelineBuilder,
    config: &DurableExploreConfig,
) -> Result<DurableExploreOutcome, PipelineError> {
    if builder.config().breakage.is_some() {
        return Err(PipelineError::Build(
            "durable exploration requires a faithful applier (breakage = None)".to_string(),
        ));
    }
    let mut ecfg = config.explore.clone();
    ecfg.collect = true;
    let explored = explore(builder, &ecfg)?;

    let mut out = DurableExploreOutcome {
        explore: explored.clone(),
        ..DurableExploreOutcome::default()
    };
    let stride = config.stride.max(1);
    // Sweeps may run concurrently in one process (parallel tests) over a
    // shared scratch directory, so the pid alone does not name a sweep's
    // files. Relaxed: a uniqueness ticket, publishes nothing.
    static SWEEPS: AtomicU64 = AtomicU64::new(0);
    let sweep = SWEEPS.fetch_add(1, Ordering::Relaxed);
    let tag = format!("{}-{sweep}", std::process::id());

    for (i, sched) in explored.complete_schedules.iter().enumerate() {
        let wal_path = config.scratch.join(format!("mvc-durable-{tag}-{i}.wal"));
        let prefix_path = config
            .scratch
            .join(format!("mvc-durable-{tag}-{i}.prefix.wal"));
        let _ = std::fs::remove_file(&wal_path);
        let report = builder.replay_durable(sched, &DurabilityConfig::new(&wal_path))?;
        out.schedules += 1;

        let records = WalReader::open_log(&wal_path)
            .map_err(|e| PipelineError::Build(format!("schedule {i} log: {e}")))?
            .records;

        let mut k = 0;
        while k <= records.len() {
            out.prefixes += 1;
            match sweep_one(builder, &records, k, &prefix_path, &report.cluster) {
                Ok(()) => out.certified_prefixes += 1,
                Err(detail) => out.failures.push(PrefixFailure {
                    schedule: sched.clone(),
                    prefix: k,
                    detail,
                }),
            }
            if k == records.len() {
                break;
            }
            // Always land on the full log as the final prefix.
            k = (k + stride).min(records.len());
        }
        let _ = std::fs::remove_file(&wal_path);
        let _ = std::fs::remove_file(&prefix_path);
    }
    Ok(out)
}

/// Crash after exactly `k` surviving records: recover, finish, certify.
fn sweep_one(
    builder: &PipelineBuilder,
    records: &[WalRecord],
    k: usize,
    prefix_path: &std::path::Path,
    cluster: &mvc_source::SourceCluster,
) -> Result<(), String> {
    write_prefix(records, k, prefix_path).map_err(|e| e.to_string())?;
    let cfg = recovery_config(builder, prefix_path);
    let stitched = recover_and_run(cfg, cluster.clone(), builder.registry(), Vec::new())
        .map_err(|e| format!("recovery: {e}"))?;
    let oracle = Oracle::new(&stitched).map_err(|e| format!("oracle: {e}"))?;
    for (group, level, verdict) in oracle.check_report() {
        if let Verdict::Violated { detail, .. } = verdict {
            return Err(format!("group {group} at {level:?}: {detail}"));
        }
    }
    Ok(())
}
