//! The legs every workload runs: set-up, flood (threaded runtime,
//! closed burst), paced/traced (open loop on the explicit pipeline) and,
//! for the durable workload, crash recovery.

use crate::check::cheap_invariants;
use crate::gen;
use crate::paced::{self, Arrivals, PacedRun};
use crate::workloads::Workload;
use mvc_analysis::{Pipeline, PipelineBuilder, PipelineConfig};
use mvc_durability::{DurabilityConfig, FaultSpec, KillMode, WalReader};
use mvc_whips::{
    recover_and_run, DurableOutcome, SimBuilder, SimConfig, SimReport, ThreadedBuilder,
    ThreadedConfig, WorkloadTxn,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// The flood leg's runtime: `pacing: 0` and defaults otherwise, plus the
/// workload's readers and WAL.
pub fn flood_builder(
    w: &Workload,
    txns: Vec<WorkloadTxn>,
    wal_dir: &Path,
    record_snapshots: bool,
) -> ThreadedBuilder {
    let config = ThreadedConfig {
        algorithm: w.algorithm,
        readers: w.readers,
        reader_think_time: Duration::from_micros(50),
        record_snapshots,
        durability: w.durability(wal_dir, "flood"),
        ..ThreadedConfig::default()
    };
    gen::install(ThreadedBuilder::new(config), &w.kinds).workload(txns)
}

pub fn pipeline_builder(
    w: &Workload,
    txns: Vec<WorkloadTxn>,
    record_snapshots: bool,
) -> PipelineBuilder {
    let config = PipelineConfig {
        algorithm: w.algorithm,
        record_snapshots,
        ..PipelineConfig::default()
    };
    gen::install(PipelineBuilder::new(config), &w.kinds).workload(txns)
}

/// A fresh pipeline, journaling through `build_durable` on the durable
/// workload (one WAL file per `leg` name).
pub fn build_pipeline(
    w: &Workload,
    b: &PipelineBuilder,
    wal_dir: &Path,
    leg: &str,
) -> Result<Pipeline, String> {
    match w.durability(wal_dir, leg) {
        Some(d) => b.build_durable(&d),
        None => b.build(),
    }
    .map_err(|e| e.to_string())
}

/// Everything that exists before the first update is offered.
pub struct Deployed {
    pub flood: ThreadedBuilder,
    pub paced_builder: PipelineBuilder,
    pub paced: Pipeline,
    /// Transactions in the paced pipeline's workload, warm-up included.
    pub paced_n: usize,
}

/// Input stream of flood repetition `rep`: every repetition replays a
/// fresh stream derived from the seed argument, so a run's median
/// averages over workload content (same-stream runs repeat within
/// ±1.5 %; single streams differ by ±10 % through view sizes).
pub fn flood_txns(w: &Workload, seed: u64, rep: u64) -> Vec<WorkloadTxn> {
    // Hashed, not offset: the generator's splitmix64 state advances by a
    // constant per draw, so `seed + rep·c` would replay shifted copies
    // of one sequence.
    let stream = gen::Rng::new(gen::Rng::new(seed).next_u64() ^ rep).next_u64();
    gen::generate(stream, w.flood_updates(), w.key_domain)
}

/// The flood leg's deployment for repetition `rep`.
pub fn flood_rep(w: &Workload, seed: u64, rep: u64, wal_dir: &Path) -> ThreadedBuilder {
    flood_builder(w, flood_txns(w, seed, rep), wal_dir, false)
}

/// Set-up: generate both legs' workloads, install relations and views,
/// build both deployments.
pub fn set_up(w: &Workload, seed: u64, seconds: u64, wal_dir: &Path) -> Result<Deployed, String> {
    let flood = flood_rep(w, seed, 0, wal_dir);
    let paced_n = w.warmup_updates() + w.paced_updates(seconds);
    // Same seed argument, a different stream than the flood leg's.
    let paced_txns = gen::generate(seed ^ 0x5eed_0001, paced_n, w.key_domain);
    let paced_builder = pipeline_builder(w, paced_txns, false);
    let paced = build_pipeline(w, &paced_builder, wal_dir, "paced")?;
    Ok(Deployed {
        flood,
        paced_builder,
        paced,
        paced_n,
    })
}

pub struct FloodRun {
    /// First injection → quiescent drain, as the runtime's driver
    /// thread measures it (`WallClock::elapsed`).
    pub wall: Duration,
    pub report: SimReport,
    /// Updates whose effect is missing from the final warehouse state.
    pub missing: usize,
}

/// One closed burst through `ThreadedBuilder::run`. A drain time-out, a
/// dirty drain or a broken structural invariant is an error.
pub fn flood(b: ThreadedBuilder, updates: usize) -> Result<FloodRun, String> {
    let (report, clock) = b.run().map_err(|e| format!("threaded run: {e}"))?;
    if clock.in_flight_at_end != 0 {
        return Err(format!(
            "{} messages in flight after the drain",
            clock.in_flight_at_end
        ));
    }
    if !clock.hb_violations.is_empty() || !clock.lock_cycles.is_empty() {
        return Err("happens-before or lock-order audit fired".to_string());
    }
    let missing = cheap_invariants(&report, updates)?;
    Ok(FloodRun {
        wall: clock.elapsed,
        report,
        missing,
    })
}

pub struct PacedLeg {
    pub run: PacedRun,
    /// Ascending update→visible latencies of the covered updates.
    pub latencies_ns: Vec<u64>,
    pub backlog_end: usize,
    /// Updates never covered by a commit or missing from the final state.
    pub missing: usize,
}

/// One open-loop (or, with `rate: None`, λ = ∞) run of the explicit
/// pipeline, whose workload holds `n` transactions, warm-up included.
pub fn paced(
    pipe: Pipeline,
    n: usize,
    arrivals: Arrivals,
    trace: bool,
) -> Result<PacedLeg, String> {
    let run = paced::run(pipe, n, arrivals, trace).map_err(|e| e.to_string())?;
    if run.commit_end_ns.len() != run.report.commit_log.len() {
        return Err("commit steps and commit log disagree".to_string());
    }
    let rows = paced::commit_rows(&run.report);
    let first = paced::first_visible_ns(&run.commit_end_ns, &rows, n);
    let latencies_ns = paced::visible_latencies(&first, arrivals);
    if latencies_ns.is_empty() {
        return Err("no timed update became visible".to_string());
    }
    let timed = n - arrivals.warmup;
    let missing = cheap_invariants(&run.report, n)?.max(timed - latencies_ns.len());
    Ok(PacedLeg {
        backlog_end: paced::backlog_at(&first, arrivals, run.last_inject_ns),
        run,
        latencies_ns,
        missing,
    })
}

fn sim_builder(w: &Workload, config: SimConfig, txns: &[WorkloadTxn]) -> SimBuilder {
    gen::install(SimBuilder::new(config), &w.kinds).workload(txns.to_vec())
}

pub struct Recovered {
    /// Wall time of `recover_and_run` alone.
    pub wall: Duration,
    /// The stitched report: the updates the crashed run had injected,
    /// plus the rest of the workload when `finish` was asked for.
    pub report: SimReport,
    pub injected: usize,
}

/// The recover sub-leg: a complete durable sim run of `txns` to count
/// its WAL records, the same run killed (`KillMode::Error`) at 90 % of
/// them, then a timed `recover_and_run`. With `finish` the un-injected
/// remainder of the workload is handed to the resumed run (the `--check`
/// pass certifies the whole history); without it recovery finishes only
/// what was in flight (the timed leg).
pub fn crash_and_recover(
    w: &Workload,
    seed: u64,
    txns: &[WorkloadTxn],
    d: &DurabilityConfig,
    record_snapshots: bool,
    finish: bool,
) -> Result<Recovered, String> {
    let config = |d: DurabilityConfig| SimConfig {
        seed,
        algorithm: w.algorithm,
        record_snapshots,
        durability: Some(d),
        ..SimConfig::default()
    };
    match sim_builder(w, config(d.clone()), txns).run_durable() {
        Ok(DurableOutcome::Completed(_)) => {}
        Ok(DurableOutcome::Crashed { .. }) => return Err("fault-free run crashed".to_string()),
        Err(e) => return Err(format!("durable sim run: {e}")),
    }
    let log = WalReader::open_log(&d.wal_path).map_err(|e| format!("reading the WAL: {e}"))?;
    let records = log.base + log.records.len() as u64;
    drop(log);

    let fault = FaultSpec {
        kill_at_record: records * 9 / 10,
        torn_tail_bytes: 0,
        mode: KillMode::Error,
    };
    let config = config(d.clone().with_fault(fault));
    let b = sim_builder(w, config.clone(), txns);
    let registry = b.registry().clone();
    let (cluster, injected) = match b.run_durable() {
        Ok(DurableOutcome::Crashed { cluster, injected }) => (cluster, injected),
        Ok(DurableOutcome::Completed(_)) => return Err("the kill point never fired".to_string()),
        Err(e) => return Err(format!("durable sim run: {e}")),
    };
    let remaining = if finish {
        txns[injected..].to_vec()
    } else {
        Vec::new()
    };
    let t0 = Instant::now();
    let report = recover_and_run(config, cluster, &registry, remaining)
        .map_err(|e| format!("recovery: {e}"))?;
    Ok(Recovered {
        wall: t0.elapsed(),
        report,
        injected,
    })
}
