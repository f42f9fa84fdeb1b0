//! Run-level metrics for the §7 experiments: throughput counters, view
//! freshness and update latency. Distributions are [`Histogram`]s; the
//! per-stage ones (merge hold time, commit delay, VUT occupancy, queue
//! depths) live in [`crate::obs::PipelineObs`].
//!
//! The deterministic simulator measures in *steps* (scheduler events —
//! each step delivers one message or injects one transaction), which is
//! the simulator's virtual time. The threaded runtime measures wall clock.

use crate::obs::Histogram;
use serde::{Deserialize, Serialize};

/// Metrics collected by a simulation run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimMetrics {
    /// Total scheduler steps executed.
    pub steps: u64,
    /// Source transactions injected.
    pub injected: u64,
    /// Warehouse transactions committed.
    pub commits: u64,
    /// Staleness at commit time, in *source updates*: how many commits the
    /// sources were ahead of the transaction's frontier when it committed.
    pub staleness_updates: Histogram,
    /// Latency from a source update's injection step to the commit step of
    /// the warehouse transaction that first covered it (per update).
    pub update_latency_steps: Histogram,
    /// Messages delivered per channel class (diagnostics).
    pub messages_delivered: u64,
    /// Physical fsync batches the WAL issued over the whole run (durable
    /// runs only; 0 otherwise). With `fsync_every = n` the writer syncs
    /// once per `n` appended records, so this is the group-commit cost
    /// knob the durability bench sweeps.
    #[serde(default)]
    pub wal_fsyncs: u64,
    /// Scheduler steps spent inside each merge group's plane (VM compute
    /// routed to the group's views, merge, commit, ack). Sim runtime
    /// only; empty in the threaded runtime. The serial sim executes
    /// these one at a time, but the groups are independent (§6.1), so
    /// `max(group_busy_steps)` is the emulated-parallel makespan of the
    /// merge/commit plane — the basis of the shard-scaling bench.
    #[serde(default)]
    pub group_busy_steps: Vec<u64>,
}

impl SimMetrics {
    /// Mean staleness in updates (the §7 freshness measure).
    pub fn mean_staleness(&self) -> f64 {
        self.staleness_updates.mean()
    }

    pub fn mean_update_latency(&self) -> f64 {
        self.update_latency_steps.mean()
    }
}
