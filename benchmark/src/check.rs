//! Output correctness: cheap invariants asserted on every timed run, and
//! the full consistency oracle for the untimed `--check` pass (the
//! oracle costs seconds per few thousand commits, so it stays off timed
//! runs).

use mvc_relational::eval_view;
use mvc_whips::{Oracle, SimReport};
use std::collections::BTreeSet;

/// Invariants that hold for every complete run of either driver.
/// `updates` is the number of workload transactions offered. Returns
/// the number of updates whose effect is missing from the final
/// warehouse state (0 on a correct run) or a description of a broken
/// structural invariant.
pub fn cheap_invariants(report: &SimReport, updates: usize) -> Result<usize, String> {
    let executed = report.cluster.history().len();
    if executed != updates {
        return Err(format!("sources executed {executed} of {updates} updates"));
    }
    if report.commit_log.len() as u64 != report.warehouse.commit_count() {
        return Err(format!(
            "commit log has {} entries, warehouse committed {}",
            report.commit_log.len(),
            report.warehouse.commit_count()
        ));
    }
    // Every routed update is covered by exactly one commit of its group.
    let mut covered = BTreeSet::new();
    for e in &report.commit_log {
        for id in &e.rows {
            if !covered.insert((e.group, *id)) {
                return Err(format!("update {id} of group {} committed twice", e.group));
            }
        }
    }
    let routed: usize = report.group_updates.iter().map(|g| g.len()).sum();
    let mut missing = routed.saturating_sub(covered.len());
    if report.routed.len() != updates {
        return Err(format!(
            "integrator routed {} of {updates} updates",
            report.routed.len()
        ));
    }
    // The final warehouse equals each view definition re-evaluated over
    // the final source state.
    for e in report.registry.iter() {
        let expect = eval_view(&e.def, report.cluster.current())
            .map_err(|err| format!("re-evaluating view {}: {err}", e.id))?;
        let got = report
            .warehouse
            .view(e.id)
            .ok_or_else(|| format!("view {} missing from the warehouse", e.id))?;
        if !got.iter_counted().eq(expect.iter_counted()) {
            // Which updates were lost is not recoverable from a state
            // mismatch: charge the whole leg.
            missing = updates;
        }
    }
    Ok(missing)
}

/// Full certification: every merge group satisfies the level its merge
/// process guarantees, and every reader cut certifies. Needs a report
/// recorded with `record_snapshots: true`.
pub fn full_oracle(report: &SimReport) -> Result<(), String> {
    let oracle = Oracle::new(report).map_err(|e| format!("oracle construction: {e}"))?;
    for (g, level, verdict) in oracle.check_report() {
        if !verdict.is_satisfied() {
            return Err(format!(
                "merge group {g} failed its {level} guarantee: {verdict}"
            ));
        }
    }
    oracle
        .check_reads()
        .map_err(|v| format!("reader observed an uncertified cut: {v}"))?;
    Ok(())
}

/// What `recovery_smoke` certifies about a crash-recovered, stitched
/// history: oracle-clean, log aligned with the warehouse history, no
/// commit applied twice, the whole workload executed.
pub fn stitched_history(report: &SimReport, updates: usize) -> Result<(), String> {
    full_oracle(report)?;
    if report.commit_log.len() != report.warehouse.history().len() {
        return Err("commit log and warehouse history diverge".to_string());
    }
    let mut seen = BTreeSet::new();
    for e in &report.commit_log {
        if !seen.insert((e.group, e.seq)) {
            return Err(format!(
                "duplicate commit group {} seq {:?}",
                e.group, e.seq
            ));
        }
    }
    match cheap_invariants(report, updates)? {
        0 => Ok(()),
        missing => Err(format!("{missing} updates missing after recovery")),
    }
}
