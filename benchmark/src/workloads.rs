//! The four benchmark workloads. Each runs the same legs; they differ
//! in which Figure 1 box dominates, so an optimisation of one layer has
//! a workload that exercises it and workloads that bypass it.

use mvc_core::MergeAlgorithm;
use mvc_durability::DurabilityConfig;
use mvc_whips::ManagerKind;
use std::path::Path;

/// Common factor applied to every flood-leg N of the issue's table
/// (6000/4000/10000/4000) so that one run fits the driver's budget of
/// 92 runs in 3420 s. Paced legs keep the issue's rates; their N is
/// `rate × seconds/2`.
pub const SCALE: (usize, usize) = (1, 3);

/// Durable workload flush policy (recorded in every output file).
pub const FSYNC_EVERY: u64 = 32;
pub const CHECKPOINT_EVERY: u64 = 500;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Manager kind of `V0, V1, V2`.
    pub kinds: [ManagerKind; 3],
    /// `None` = the §6.3 weakest-level selection (PA for Strobe views).
    pub algorithm: Option<MergeAlgorithm>,
    pub key_domain: i64,
    /// Flood-leg N before [`SCALE`].
    flood_updates_unscaled: usize,
    /// Open-loop arrival rate of the paced and traced legs, per second.
    pub paced_rate: u64,
    /// MVCC reader threads beside the flood leg's commits.
    pub readers: usize,
    /// WAL on in every leg, plus the recover sub-leg.
    pub durable: bool,
}

impl Workload {
    pub fn flood_updates(&self) -> usize {
        self.flood_updates_unscaled * SCALE.0 / SCALE.1
    }

    /// Paced-leg N for a run of `seconds`: the leg offers arrivals for
    /// half of the run.
    pub fn paced_updates(&self, seconds: u64) -> usize {
        (self.paced_rate * seconds / 2) as usize
    }

    /// Updates offered at once and drained before the paced leg's clock
    /// starts: enough to fill the relations to their steady state (the
    /// key domain holds `key_domain²` tuples per relation and the net
    /// growth is half a tuple per update), so that per-update cost is
    /// stationary during the timed part and repeats across seeds.
    pub fn warmup_updates(&self) -> usize {
        2 * crate::gen::RELATIONS * (self.key_domain * self.key_domain) as usize
    }

    /// WAL configuration of one leg, `None` on the WAL-off workloads.
    pub fn durability(&self, wal_dir: &Path, leg: &str) -> Option<DurabilityConfig> {
        self.durable.then(|| {
            DurabilityConfig::new(wal_dir.join(format!("{leg}.wal")))
                .with_fsync_every(FSYNC_EVERY)
                .with_checkpoint_every(CHECKPOINT_EVERY)
        })
    }
}

use ManagerKind::{Complete, Eca, SelfMaintaining, Strobe};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "spa_wide",
        why: "Complete x3 under SPA, key domain 16: join views grow to thousands of tuples, so warehouse.apply (per-commit fingerprint, COW) dominates; a view-manager change should not move it",
        kinds: [Complete, Complete, Complete],
        algorithm: Some(MergeAlgorithm::Spa),
        key_domain: 16,
        flood_updates_unscaled: 6000,
        paced_rate: 400,
        readers: 0,
        durable: false,
    },
    Workload {
        name: "pa_queryback",
        why: "Strobe x3 under PA: view-manager bound (Strobe handle, query-back round trips through answer_query); flood collapses into ~1 commit, paced commits per update; a commit-only change barely moves it",
        kinds: [Strobe, Strobe, Strobe],
        algorithm: None,
        key_domain: 16,
        flood_updates_unscaled: 4000,
        paced_rate: 100,
        readers: 0,
        durable: false,
    },
    Workload {
        name: "spa_readers",
        why: "Complete, SelfMaintaining, Eca under SPA, key domain 8, flood beside 2 MVCC readers: small views, so per-message costs, routing, merge, version pinning and runtime overhead show",
        kinds: [Complete, SelfMaintaining, Eca],
        algorithm: Some(MergeAlgorithm::Spa),
        key_domain: 8,
        flood_updates_unscaled: 10000,
        paced_rate: 2000,
        readers: 2,
        durable: false,
    },
    Workload {
        name: "durable_recover",
        why: "Complete x3 under SPA with the WAL on in every leg (fsync_every 32, checkpoint_every 500) plus crash recovery; the other three run WAL-off, so a durability change must not move them",
        kinds: [Complete, Complete, Complete],
        algorithm: Some(MergeAlgorithm::Spa),
        key_domain: 12,
        flood_updates_unscaled: 4000,
        paced_rate: 400,
        readers: 0,
        durable: true,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
