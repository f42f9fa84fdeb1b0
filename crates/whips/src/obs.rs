//! Pipeline observability: log-bucketed latency histograms and per-stage
//! instrumentation shared by both runtimes.
//!
//! The deterministic simulator measures in virtual *steps*, the threaded
//! runtime in *nanoseconds*; both feed the same [`PipelineObs`], so the
//! sim's per-stage percentile tables (`bench_pipeline`,
//! `BENCH_pipeline.json`) and the threaded ones (`benchmark/`) read alike.
//!
//! [`Histogram`] is the one sample-distribution type (the run-level
//! [`crate::metrics::SimMetrics`] uses it too): `count`/`min`/`max`/`mean`
//! are exact, quantiles are bucketed. It is designed for concurrent
//! pipelines without shared
//! locks: every thread records into its own private instance and the
//! driver folds them together with [`Histogram::merge`] after the joins.
//! Merging is exact (bucket-wise addition), associative and commutative,
//! so the fold order never changes the result.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Sub-bucket precision bits: each power-of-two range is split into
/// `2^SUB_BITS` linear sub-buckets, bounding the relative quantile error
/// at `2^-SUB_BITS` (6.25%). Values below `2^SUB_BITS` are exact.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range: `SUB` exact small-value
/// buckets plus `SUB` sub-buckets for each of the `64 - SUB_BITS` octaves.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A log-bucketed histogram over `u64` samples (HdrHistogram-style, fixed
/// memory, no allocation after construction). Bucket boundaries are
/// value-independent, so histograms from different threads or runs merge
/// exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros() as usize; // >= SUB_BITS
            let sub = ((v >> (msb - SUB_BITS as usize)) & (SUB as u64 - 1)) as usize;
            SUB + (msb - SUB_BITS as usize) * SUB + sub
        }
    }

    /// Lower bound of the bucket at `idx` — the value reported by
    /// [`Histogram::quantile`], hence quantiles underestimate by at most
    /// one sub-bucket width (relative error `2^-SUB_BITS`).
    fn bucket_floor(idx: usize) -> u64 {
        if idx < SUB {
            idx as u64
        } else {
            let octave = (idx - SUB) / SUB + SUB_BITS as usize;
            let sub = ((idx - SUB) % SUB) as u64;
            (1u64 << octave) + (sub << (octave - SUB_BITS as usize))
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` (0.0 ..= 1.0): the floor of the bucket
    /// containing the `ceil(q * count)`-th sample, clamped to the observed
    /// `[min, max]` so exact extremes survive bucketing.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold another histogram into this one (exact: bucket-wise sums).
    ///
    /// Bucket vectors can differ in length (a histogram deserialized
    /// from a run built with different `SUB_BITS`, or a hand-rolled
    /// fixture): grow to the longer layout first, so no bucket of
    /// `other` is dropped and `count` always equals the bucket sum —
    /// `zip` alone would silently truncate to the shorter vector while
    /// still adding the full `other.count`.
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn to_json(&self) -> serde_json::Value {
        [
            ("count".to_owned(), self.count().into()),
            ("min".to_owned(), self.min().into()),
            ("max".to_owned(), self.max().into()),
            ("mean".to_owned(), self.mean().into()),
            ("p50".to_owned(), self.p50().into()),
            ("p99".to_owned(), self.p99().into()),
        ]
        .into_iter()
        .collect()
    }
}

/// Running queue-depth gauge for one channel class: peak and mean depth
/// observed at send time.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct QueueGauge {
    pub peak: u64,
    pub samples: u64,
    sum: u128,
}

impl QueueGauge {
    pub fn record(&mut self, depth: u64) {
        self.peak = self.peak.max(depth);
        self.samples += 1;
        self.sum += u128::from(depth);
    }

    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }

    fn merge(&mut self, other: &QueueGauge) {
        self.peak = self.peak.max(other.peak);
        self.samples += other.samples;
        self.sum += other.sum;
    }
}

/// Per-stage observability for one pipeline run. Stage semantics per
/// runtime (virtual steps in the simulator, nanoseconds threaded):
///
/// | stage            | simulator                              | threaded                          |
/// |------------------|----------------------------------------|-----------------------------------|
/// | `src_to_int_wait`| steps an update queues source→integrator | ns between send and receive      |
/// | `int_routing`    | steps integrator output queues to MP/VM | ns integrator output queues to MP/VM |
/// | `vm_compute`     | steps from update arrival at the VM to its AL emission (includes query round-trips) | ns per `ViewManager::handle` call |
/// | `merge_hold`     | AL received at the merge process → covering WT released | same, wall clock |
/// | `commit_apply`   | WT released → warehouse commit          | same, wall clock                  |
/// | `vut_occupancy`  | live VUT rows, sampled on every merge-process event (both runtimes) | |
///
/// `queue_depth` gauges sample each channel class's backlog at send time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineObs {
    /// Unit of every latency histogram: `"steps"` or `"ns"`.
    pub unit: &'static str,
    pub src_to_int_wait: Histogram,
    pub int_routing: Histogram,
    pub vm_compute: Histogram,
    pub merge_hold: Histogram,
    pub commit_apply: Histogram,
    pub vut_occupancy: Histogram,
    pub queue_depth: BTreeMap<&'static str, QueueGauge>,
    /// Reader-workload metrics (empty when no readers are configured).
    /// `read_latency` is in this instance's `unit`; the other three are
    /// unit-less counts (commits behind head, chain entries, commits of
    /// GC lag) sampled per read.
    pub read_latency: Histogram,
    pub read_staleness: Histogram,
    pub read_chain: Histogram,
    pub read_gc_lag: Histogram,
    /// Wall-span of per-group merge activity: group → (first, last)
    /// activity timestamp, in this instance's `unit` since the run's
    /// epoch (ns threaded, virtual steps simulated). Overlapping spans
    /// across groups are the direct evidence that per-group merge
    /// workers were concurrently active.
    pub group_activity: BTreeMap<usize, (u64, u64)>,
}

impl PipelineObs {
    pub fn new(unit: &'static str) -> Self {
        PipelineObs {
            unit,
            src_to_int_wait: Histogram::new(),
            int_routing: Histogram::new(),
            vm_compute: Histogram::new(),
            merge_hold: Histogram::new(),
            commit_apply: Histogram::new(),
            vut_occupancy: Histogram::new(),
            queue_depth: BTreeMap::new(),
            read_latency: Histogram::new(),
            read_staleness: Histogram::new(),
            read_chain: Histogram::new(),
            read_gc_lag: Histogram::new(),
            group_activity: BTreeMap::new(),
        }
    }

    /// Stretch group `g`'s activity span to cover timestamp `at`.
    pub fn note_group_span(&mut self, group: usize, at: u64) {
        let e = self.group_activity.entry(group).or_insert((at, at));
        e.0 = e.0.min(at);
        e.1 = e.1.max(at);
    }

    /// Record one reader-workload read's unit-less gauges (staleness in
    /// commits behind head, longest version chain touched, GC lag in
    /// commits). Latency goes into `read_latency` separately — the sim
    /// has no meaningful per-read latency, only the threaded runtime
    /// records it.
    pub fn note_read(&mut self, staleness: u64, chain_len: u64, gc_lag: u64) {
        self.read_staleness.record(staleness);
        self.read_chain.record(chain_len);
        self.read_gc_lag.record(gc_lag);
    }

    /// Latency stages by name, in pipeline order (excludes the occupancy
    /// histogram, which is a gauge distribution, not a latency).
    pub fn stages(&self) -> [(&'static str, &Histogram); 5] {
        [
            ("src_to_int_wait", &self.src_to_int_wait),
            ("int_routing", &self.int_routing),
            ("vm_compute", &self.vm_compute),
            ("merge_hold", &self.merge_hold),
            ("commit_apply", &self.commit_apply),
        ]
    }

    /// Peak live-row count across all merge processes.
    pub fn vut_peak(&self) -> u64 {
        self.vut_occupancy.max()
    }

    pub fn note_depth(&mut self, chan: &'static str, depth: u64) {
        self.queue_depth.entry(chan).or_default().record(depth);
    }

    /// Fold a per-thread instance into this one. Units must match (merging
    /// steps into nanoseconds would be meaningless).
    pub fn merge(&mut self, other: &PipelineObs) {
        assert_eq!(
            self.unit, other.unit,
            "merging histograms of different units"
        );
        self.src_to_int_wait.merge(&other.src_to_int_wait);
        self.int_routing.merge(&other.int_routing);
        self.vm_compute.merge(&other.vm_compute);
        self.merge_hold.merge(&other.merge_hold);
        self.commit_apply.merge(&other.commit_apply);
        self.vut_occupancy.merge(&other.vut_occupancy);
        for (chan, g) in &other.queue_depth {
            self.queue_depth.entry(chan).or_default().merge(g);
        }
        self.read_latency.merge(&other.read_latency);
        self.read_staleness.merge(&other.read_staleness);
        self.read_chain.merge(&other.read_chain);
        self.read_gc_lag.merge(&other.read_gc_lag);
        for (g, (first, last)) in &other.group_activity {
            let e = self.group_activity.entry(*g).or_insert((*first, *last));
            e.0 = e.0.min(*first);
            e.1 = e.1.max(*last);
        }
    }

    /// JSON rendering used by the `bench_pipeline` harness.
    pub fn to_json(&self) -> serde_json::Value {
        let stages: serde_json::Value = self
            .stages()
            .iter()
            .map(|(name, h)| ((*name).to_owned(), h.to_json()))
            .collect();
        let depths: serde_json::Value = self
            .queue_depth
            .iter()
            .map(|(chan, g)| {
                (
                    (*chan).to_owned(),
                    [
                        ("peak".to_owned(), g.peak.into()),
                        ("mean".to_owned(), g.mean().into()),
                    ]
                    .into_iter()
                    .collect(),
                )
            })
            .collect();
        let mut out: Vec<(String, serde_json::Value)> = vec![
            ("unit".to_owned(), self.unit.into()),
            ("stages".to_owned(), stages),
            ("queue_depth".to_owned(), depths),
            ("vut_occupancy".to_owned(), self.vut_occupancy.to_json()),
            ("vut_peak".to_owned(), self.vut_peak().into()),
        ];
        if !self.group_activity.is_empty() {
            out.push((
                "group_activity".to_owned(),
                self.group_activity
                    .iter()
                    .map(|(g, (first, last))| {
                        (
                            g.to_string(),
                            [
                                ("first".to_owned(), serde_json::Value::from(*first)),
                                ("last".to_owned(), (*last).into()),
                            ]
                            .into_iter()
                            .collect::<serde_json::Value>(),
                        )
                    })
                    .collect(),
            ));
        }
        if !self.read_staleness.is_empty() {
            // Reader metrics carry the run's unit tag like everything
            // else; latency is in `unit`, the gauges are commit counts.
            out.push((
                "readers".to_owned(),
                [
                    ("unit".to_owned(), self.unit.into()),
                    ("reads".to_owned(), self.read_staleness.count().into()),
                    ("latency".to_owned(), self.read_latency.to_json()),
                    ("staleness".to_owned(), self.read_staleness.to_json()),
                    ("chain_len".to_owned(), self.read_chain.to_json()),
                    ("gc_lag".to_owned(), self.read_gc_lag.to_json()),
                ]
                .into_iter()
                .collect(),
            ));
        }
        out.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn exact_for_small_values() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.mean(), 7.5);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.p50(), 7, "small values are bucketed exactly");
    }

    #[test]
    fn quantile_bounds_hold() {
        // Every reported quantile must lie within one sub-bucket (relative
        // error 2^-SUB_BITS) below the true order statistic, and within
        // the observed [min, max].
        let mut rng = StdRng::seed_from_u64(11);
        let mut h = Histogram::new();
        let mut vals: Vec<u64> = (0..5000).map(|_| rng.gen_range(0..u64::MAX / 2)).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let truth = vals[rank - 1];
            let got = h.quantile(q);
            assert!(
                got <= truth,
                "quantile {q}: floor {got} above truth {truth}"
            );
            let tolerance = truth / SUB as u64 + 1;
            assert!(
                truth - got <= tolerance,
                "quantile {q}: {got} more than one sub-bucket below {truth}"
            );
            assert!((h.min()..=h.max()).contains(&got));
        }
    }

    #[test]
    fn merge_is_associative_and_preserves_counts() {
        let mut rng = StdRng::seed_from_u64(3);
        let parts: Vec<Histogram> = (0..3)
            .map(|_| {
                let mut h = Histogram::new();
                for _ in 0..1000 {
                    h.record(rng.gen_range(0..1_000_000u64));
                }
                h
            })
            .collect();
        // (a ⊕ b) ⊕ c
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        // a ⊕ (b ⊕ c)
        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        let mut right = parts[0].clone();
        right.merge(&bc);
        assert_eq!(left.count(), 3000);
        assert_eq!(left.count(), right.count());
        assert_eq!(left.min(), right.min());
        assert_eq!(left.max(), right.max());
        assert_eq!(left.sum, right.sum);
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(left.quantile(q), right.quantile(q), "quantile {q}");
        }
        // counts equal the element-wise bucket sums
        assert_eq!(
            left.counts,
            (0..BUCKETS)
                .map(|i| parts.iter().map(|p| p.counts[i]).sum::<u64>())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn merged_equals_single_stream() {
        // Recording a stream into two halves and merging gives the same
        // histogram as recording it all into one — the property that makes
        // per-thread recording safe.
        let mut rng = StdRng::seed_from_u64(9);
        let vals: Vec<u64> = (0..2000).map(|_| rng.gen_range(0..u64::MAX)).collect();
        let mut whole = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, &v) in vals.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.counts, whole.counts);
        assert_eq!(a.sum, whole.sum);
        assert_eq!(a.p99(), whole.p99());
    }

    proptest::proptest! {
        /// Under arbitrary fills — including histograms whose bucket
        /// vectors differ in length, as deserialization from a run with
        /// a different `SUB_BITS` layout produces — merging never loses
        /// samples: `merge(a, b).count == a.count + b.count`, and the
        /// count always equals the bucket sum (the invariant `quantile`
        /// walks rely on; the old `zip`-only merge broke it by dropping
        /// `other`'s excess buckets).
        #[test]
        fn prop_merge_preserves_counts(
            xs in proptest::collection::vec(0u64..u64::MAX, 0..200),
            ys in proptest::collection::vec(0u64..u64::MAX, 0..200),
            truncate_to in 0usize..BUCKETS,
        ) {
            let mut a = Histogram::new();
            for &v in &xs {
                a.record(v);
            }
            let mut b = Histogram::new();
            for &v in &ys {
                b.record(v);
            }
            // Model a layout mismatch: shrink `a`'s vector to a prefix
            // (moving truncated samples into the last kept bucket so the
            // fixture itself stays internally consistent).
            let keep = truncate_to.max(1);
            if keep < a.counts.len() {
                let excess: u64 = a.counts[keep..].iter().sum();
                a.counts.truncate(keep);
                *a.counts.last_mut().unwrap() += excess;
            }
            let (ca, cb) = (a.count(), b.count());
            a.merge(&b);
            proptest::prop_assert_eq!(a.count(), ca + cb);
            proptest::prop_assert_eq!(a.counts.iter().sum::<u64>(), a.count());
        }
    }

    #[test]
    fn bucket_floor_inverts_index() {
        for v in [0, 1, 15, 16, 17, 255, 1024, 123_456_789, u64::MAX] {
            let idx = Histogram::index(v);
            let floor = Histogram::bucket_floor(idx);
            assert!(floor <= v, "floor {floor} above value {v}");
            if idx + 1 < BUCKETS {
                assert!(Histogram::bucket_floor(idx + 1) > v);
            }
        }
    }

    #[test]
    fn queue_gauge_tracks_peak_and_mean() {
        let mut g = QueueGauge::default();
        for d in [0, 3, 1, 7, 2] {
            g.record(d);
        }
        assert_eq!(g.peak, 7);
        assert!((g.mean() - 2.6).abs() < 1e-9);
        let mut other = QueueGauge::default();
        other.record(9);
        g.merge(&other);
        assert_eq!(g.peak, 9);
        assert_eq!(g.samples, 6);
    }

    #[test]
    fn pipeline_obs_merge_and_json() {
        let mut a = PipelineObs::new("ns");
        a.src_to_int_wait.record(10);
        a.vut_occupancy.record(5);
        a.note_depth("int_to_mp", 4);
        let mut b = PipelineObs::new("ns");
        b.src_to_int_wait.record(30);
        b.vut_occupancy.record(2);
        b.note_depth("int_to_mp", 9);
        a.merge(&b);
        assert_eq!(a.src_to_int_wait.count(), 2);
        assert_eq!(a.vut_peak(), 5);
        assert_eq!(a.queue_depth["int_to_mp"].peak, 9);
        let j = a.to_json();
        assert_eq!(j["unit"].as_str(), Some("ns"));
        assert_eq!(j["stages"]["src_to_int_wait"]["count"].as_u64(), Some(2));
        assert_eq!(j["vut_peak"].as_u64(), Some(5));
        // No readers configured → no readers block in the JSON.
        assert!(j["readers"].as_object().is_none());
    }

    #[test]
    fn group_activity_spans_merge_and_json() {
        let mut a = PipelineObs::new("ns");
        a.note_group_span(0, 10);
        a.note_group_span(0, 50);
        a.note_group_span(1, 30);
        let mut b = PipelineObs::new("ns");
        b.note_group_span(0, 5);
        b.note_group_span(1, 90);
        a.merge(&b);
        assert_eq!(a.group_activity[&0], (5, 50));
        assert_eq!(a.group_activity[&1], (30, 90));
        let j = a.to_json();
        assert_eq!(j["group_activity"]["0"]["first"].as_u64(), Some(5));
        assert_eq!(j["group_activity"]["1"]["last"].as_u64(), Some(90));
        // No spans recorded → no key in the JSON.
        let empty = PipelineObs::new("ns");
        assert!(empty.to_json()["group_activity"].as_object().is_none());
    }

    #[test]
    fn reader_metrics_merge_and_json() {
        let mut a = PipelineObs::new("steps");
        a.note_read(3, 2, 5);
        a.read_latency.record(100);
        let mut b = PipelineObs::new("steps");
        b.note_read(0, 1, 0);
        a.merge(&b);
        assert_eq!(a.read_staleness.count(), 2);
        assert_eq!(a.read_gc_lag.max(), 5);
        let j = a.to_json();
        assert_eq!(j["readers"]["reads"].as_u64(), Some(2));
        assert_eq!(j["readers"]["unit"].as_str(), Some("steps"));
        assert_eq!(j["readers"]["staleness"]["max"].as_u64(), Some(3));
        assert_eq!(j["readers"]["latency"]["count"].as_u64(), Some(1));
    }
}
