//! Per-layer numbers: aggregation of the traced leg's spans, and two
//! direct timed loops for layers the explicit pipeline does not reach
//! (WAL append/flush in isolation, cut publish / `read_at`).

use crate::metrics::Metrics;
use crate::paced::{Span, KINDS, KIND_VM_HANDLE};
use crate::stats::{mean, percentile_sorted};
use mvc_core::ViewId;
use mvc_durability::{to_bytes, DurabilityConfig, WalReader, WalRecord, WalWriter};
use mvc_readpath::VersionedCuts;
use mvc_relational::Relation;
use mvc_whips::ManagerKind;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Summed step time of a traced run, ns.
pub fn busy_ns(spans: &[Span]) -> u64 {
    spans.iter().map(|s| s.end_ns - s.start_ns).sum()
}

/// `K.calls`, `K.mean_us`, `K.p99_us`, `K.share` for every step kind.
/// The shares are of summed step time, so they sum to 1.
pub fn step_metrics(spans: &[Span], m: &mut Metrics) {
    let total = busy_ns(spans).max(1) as f64;
    for (k, kind) in KINDS.iter().enumerate() {
        let mut d: Vec<u64> = spans
            .iter()
            .filter(|s| usize::from(s.kind) == k)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        d.sort_unstable();
        m.set(format!("{kind}.calls"), d.len() as f64);
        m.set(format!("{kind}.mean_us"), us(mean(&d)));
        let p99 = if d.is_empty() {
            0
        } else {
            percentile_sorted(&d, 99.0)
        };
        m.set(format!("{kind}.p99_us"), us(p99 as f64));
        m.set(
            format!("{kind}.share"),
            d.iter().sum::<u64>() as f64 / total,
        );
    }
}

/// `viewmgr.<kind>.handle_mean_us`: the `viewmgr.handle` spans split by
/// the manager kind of the view in `ChanId::IntToVm`. 0 for kinds the
/// workload does not deploy.
pub fn viewmgr_metrics(spans: &[Span], kinds: &[(ViewId, ManagerKind)], m: &mut Metrics) {
    let label = |k: ManagerKind| match k {
        ManagerKind::Complete => Some("complete"),
        ManagerKind::Strobe => Some("strobe"),
        ManagerKind::SelfMaintaining => Some("selfmaint"),
        ManagerKind::Eca => Some("eca"),
        _ => None,
    };
    let mut by_label: BTreeMap<&str, Vec<u64>> = ["complete", "strobe", "selfmaint", "eca"]
        .into_iter()
        .map(|l| (l, Vec::new()))
        .collect();
    for s in spans.iter().filter(|s| s.kind == KIND_VM_HANDLE) {
        let kind = kinds.iter().find(|(v, _)| v.0 == s.id).map(|(_, k)| *k);
        if let Some(l) = kind.and_then(label) {
            by_label
                .get_mut(l)
                .expect("seeded label")
                .push(s.end_ns - s.start_ns);
        }
    }
    for (l, d) in by_label {
        m.set(format!("viewmgr.{l}.handle_mean_us"), us(mean(&d)));
    }
}

/// The trace file: every span of the traced leg, one row per `step`
/// call (`step_no` is the row index), written once at exit. Streamed
/// by hand: a `serde_json::Value` per span would cost more memory than
/// the 200 000 spans themselves.
pub fn write_trace(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"workload\":\"{workload}\",\"fields\":[\"name\",\"view_or_group\",\"start_ns\",\"end_ns\"],\"names\":{:?},\"spans\":[",
        KINDS
    )?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            out,
            "{sep}\n[{},{},{},{}]",
            s.kind, s.id, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

pub struct WalReplay {
    pub append_mean_ns: f64,
    pub flush_mean_ns: f64,
    pub records: usize,
    pub checkpoint_bytes: usize,
}

/// Replay the records of the log at `source` into a fresh writer at
/// `scratch`, timing `append` (encode + buffer, no I/O: the writer's own
/// flush threshold is out of reach) and an explicit `flush` (write +
/// fsync) every `fsync_every` records — the flood leg's batch size.
pub fn wal_replay(source: &Path, scratch: &Path, fsync_every: u64) -> Result<WalReplay, String> {
    let log = WalReader::open_log(source).map_err(|e| format!("reading {source:?}: {e}"))?;
    let config = DurabilityConfig::new(scratch).with_fsync_every(u64::MAX);
    let mut w = WalWriter::create(&config).map_err(|e| format!("creating {scratch:?}: {e}"))?;
    let (mut append, mut flush) = (Vec::new(), Vec::new());
    let mut checkpoint_bytes = 0;
    let mut buffered = 0;
    for rec in &log.records {
        if matches!(rec, WalRecord::Checkpoint(_)) {
            checkpoint_bytes += to_bytes(rec).len();
        }
        let t0 = Instant::now();
        w.append(rec).map_err(|e| format!("append: {e}"))?;
        append.push(t0.elapsed().as_nanos() as u64);
        buffered += 1;
        if buffered == fsync_every {
            buffered = 0;
            let t0 = Instant::now();
            w.flush().map_err(|e| format!("flush: {e}"))?;
            flush.push(t0.elapsed().as_nanos() as u64);
        }
    }
    w.finalize().map_err(|e| format!("finalize: {e}"))?;
    Ok(WalReplay {
        append_mean_ns: mean(&append),
        flush_mean_ns: mean(&flush),
        records: log.records.len(),
        checkpoint_bytes,
    })
}

const READPATH_ROUNDS: u64 = 10_000;

/// `(publish_mean_ns, read_at_mean_ns)`: seed a cut store, then
/// alternate `publish` of the final view `Arc`s and `read_at` over all
/// views from one session.
pub fn readpath_loop(views: &BTreeMap<ViewId, Arc<Relation>>) -> (f64, f64) {
    let ids: Vec<ViewId> = views.keys().copied().collect();
    let cuts = VersionedCuts::new();
    cuts.seed(0, views.clone());
    let mut session = cuts.open_session();
    let (mut publish, mut read) = (0u64, 0u64);
    for watermark in 1..=READPATH_ROUNDS {
        let changed = views.clone();
        let t0 = Instant::now();
        cuts.publish(watermark, changed);
        publish += t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        let outcome = session.read_at(watermark, &ids);
        read += t0.elapsed().as_nanos() as u64;
        std::hint::black_box(outcome.expect("published watermark is readable"));
    }
    (
        publish as f64 / READPATH_ROUNDS as f64,
        read as f64 / READPATH_ROUNDS as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{per_layer, STEP_METRICS};

    #[test]
    fn step_shares_sum_to_one_and_cover_every_kind() {
        let spans: Vec<Span> = (0..64u64)
            .map(|i| Span {
                kind: (i % 8) as u8,
                id: 1,
                start_ns: i * 100,
                end_ns: i * 100 + 10 + i,
            })
            .collect();
        let mut m = Metrics::default();
        step_metrics(&spans, &mut m);
        let table: Vec<_> = per_layer()
            .into_iter()
            .take(KINDS.len() * STEP_METRICS.len())
            .collect();
        let rows = m.in_order(&table).unwrap();
        let shares: f64 = rows
            .iter()
            .filter(|(n, _, _)| n.ends_with(".share"))
            .map(|(_, v, _)| v)
            .sum();
        assert!((shares - 1.0).abs() < 1e-9, "{shares}");
        assert!(rows
            .iter()
            .filter(|(n, _, _)| n.ends_with(".calls"))
            .all(|(_, v, _)| *v == 8.0));
    }
}
