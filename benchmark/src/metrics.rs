//! The metric vocabulary of `BENCHMARK.json`, in output order. A run
//! fills a [`Metrics`] bag by name; [`Metrics::in_order`] refuses to
//! print a run that misses a named metric or carries an unnamed one, so
//! the output and `BENCHMARK.json` cannot drift apart silently.

use crate::paced::KINDS;
use std::collections::BTreeMap;

/// `(name, unit)` of the end-to-end metrics (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("updates_per_s", "1/s"),
    ("visible_mean_ms", "ms"),
    ("visible_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Suffix and unit of the four metrics every step kind gets.
pub const STEP_METRICS: [(&str, &str); 4] = [
    ("calls", "count"),
    ("mean_us", "us"),
    ("p99_us", "us"),
    ("share", "ratio"),
];

const LAYER_METRICS: [(&str, &str); 36] = [
    ("viewmgr.complete.handle_mean_us", "us"),
    ("viewmgr.strobe.handle_mean_us", "us"),
    ("viewmgr.selfmaint.handle_mean_us", "us"),
    ("viewmgr.eca.handle_mean_us", "us"),
    ("core.vut_peak_rows", "count"),
    ("core.commits_per_update", "ratio"),
    ("core.batched_actions", "count"),
    ("durability.append_mean_us", "us"),
    ("durability.flush_mean_us", "us"),
    ("durability.records_per_update", "ratio"),
    ("durability.fsyncs", "count"),
    ("durability.step_overhead_us", "us"),
    ("durability.checkpoint_bytes", "B"),
    ("durability.wal_bytes_per_update", "B"),
    ("durability.recovery_s", "s"),
    ("readpath.publish_mean_us", "us"),
    ("readpath.read_at_mean_us", "us"),
    ("readpath.read_p50_ns", "ns"),
    ("readpath.read_p99_ns", "ns"),
    ("readpath.staleness_mean", "count"),
    ("readpath.reads_per_s", "1/s"),
    ("whips.threaded_vs_inline_ratio", "ratio"),
    ("whips.flood_peak_rss_mb", "MB"),
    ("whips.stage.src_to_int_wait_p50_ns", "ns"),
    ("whips.stage.int_routing_p50_ns", "ns"),
    ("whips.stage.vm_compute_p50_ns", "ns"),
    ("whips.stage.merge_hold_p50_ns", "ns"),
    ("whips.stage.commit_apply_p50_ns", "ns"),
    ("pipeline.utilisation", "ratio"),
    ("pipeline.capacity_updates_per_s", "1/s"),
    ("pipeline.visible_p50_ms", "ms"),
    ("pipeline.visible_p99_ms", "ms"),
    ("pipeline.gen_late_max_ms", "ms"),
    ("pipeline.backlog_end", "count"),
    ("pipeline.trace_overhead_pct", "%"),
    ("warehouse.view_rows_end", "count"),
];

/// `(name, unit)` of the per-layer metrics (`--trace 1`): four per step
/// kind, then the layer-specific ones.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for kind in KINDS {
        for (suffix, unit) in STEP_METRICS {
            out.push((format!("{kind}.{suffix}"), unit));
        }
    }
    out.extend(LAYER_METRICS.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect()
}

#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The values in `table` order with their units, or the names that
    /// are missing from / foreign to the table.
    pub fn in_order(
        &self,
        table: &[(String, &'static str)],
    ) -> Result<Vec<(String, f64, &'static str)>, String> {
        let missing: Vec<&str> = table
            .iter()
            .filter(|(n, _)| !self.0.contains_key(n))
            .map(|(n, _)| n.as_str())
            .collect();
        let foreign: Vec<&str> = self
            .0
            .keys()
            .filter(|k| !table.iter().any(|(n, _)| n == *k))
            .map(String::as_str)
            .collect();
        if !missing.is_empty() || !foreign.is_empty() {
            return Err(format!(
                "metric vocabulary mismatch: missing {missing:?}, unnamed {foreign:?}"
            ));
        }
        Ok(table
            .iter()
            .map(|(n, u)| (n.clone(), self.0[n], *u))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn declared(doc: &serde_json::Value, section: &str) -> Vec<(String, String)> {
        doc[section]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    /// The output carries every metric `BENCHMARK.json` names, in its
    /// unit, and nothing it does not name; the workloads match too.
    #[test]
    fn vocabulary_matches_benchmark_json() {
        let doc = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        for (section, table) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let ours: Vec<(String, String)> =
                table.into_iter().map(|(n, u)| (n, u.to_string())).collect();
            assert_eq!(declared(&doc, section), ours, "{section}");
        }
        let names: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn in_order_rejects_missing_and_unnamed_metrics() {
        let table = end_to_end();
        let mut m = Metrics::default();
        for (name, _) in &table {
            m.set(name.clone(), 1.0);
        }
        assert_eq!(m.in_order(&table).unwrap().len(), table.len());
        m.set("made_up", 2.0);
        assert!(m.in_order(&table).unwrap_err().contains("made_up"));
        let mut short = Metrics::default();
        short.set("setup_s", 1.0);
        assert!(short
            .in_order(&table)
            .unwrap_err()
            .contains("updates_per_s"));
    }
}
