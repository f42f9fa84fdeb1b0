//! The benchmark's own wall-clock, open-loop scheduler over the
//! explorer's explicit pipeline (`mvc_analysis::Pipeline`).
//!
//! Policy (part of the `visible_*` metric definitions):
//!
//! 1. if the next arrival is due (`now ≥ t0 + i/λ`) → `Choice::Inject`:
//!    sources are autonomous, they commit on time even when the
//!    warehouse lags;
//! 2. else deliver the enabled channel closest to the warehouse:
//!    `MpToWh > WhToMp > VmToMp > IntToMp > IntToVm > VmToQs > SrcToInt`
//!    (ties: lowest view/group id);
//! 3. else spin until the next arrival is due.
//!
//! Every `step(Choice)` is exactly one Figure 1 box, so timing the call
//! gives that box's service time with no queue wait mixed in. One thread.

use mvc_analysis::{ChanId, Choice, Pipeline, PipelineError};
use mvc_whips::SimReport;
use std::collections::BTreeMap;
use std::time::Instant;

/// Step kinds, in the order of the per-layer metric table. The index is
/// what a [`Span`] stores.
pub const KINDS: [&str; 8] = [
    "source.execute",
    "integrator.route",
    "viewmgr.handle",
    "source.answer_query",
    "core.on_rel",
    "core.on_action",
    "core.on_committed",
    "warehouse.apply",
];
pub const KIND_VM_HANDLE: u8 = 2;
const KIND_APPLY: u8 = 7;

/// `(kind index, view or group id)` of a choice.
pub fn kind_of(c: Choice) -> (u8, u32) {
    match c {
        Choice::Inject => (0, 0),
        Choice::Deliver(ChanId::SrcToInt) => (1, 0),
        Choice::Deliver(ChanId::IntToVm(v)) => (KIND_VM_HANDLE, v.0),
        Choice::Deliver(ChanId::VmToQs(v)) => (3, v.0),
        Choice::Deliver(ChanId::IntToMp(g)) => (4, g as u32),
        Choice::Deliver(ChanId::VmToMp(v)) => (5, v.0),
        Choice::Deliver(ChanId::WhToMp(g)) => (6, g as u32),
        Choice::Deliver(ChanId::MpToWh(g)) => (KIND_APPLY, g as u32),
    }
}

/// Downstream-first delivery priority (lower = first).
fn priority(c: Choice) -> u8 {
    match c {
        Choice::Deliver(ChanId::MpToWh(_)) => 0,
        Choice::Deliver(ChanId::WhToMp(_)) => 1,
        Choice::Deliver(ChanId::VmToMp(_)) => 2,
        Choice::Deliver(ChanId::IntToMp(_)) => 3,
        Choice::Deliver(ChanId::IntToVm(_)) => 4,
        Choice::Deliver(ChanId::VmToQs(_)) => 5,
        Choice::Deliver(ChanId::SrcToInt) => 6,
        Choice::Inject => u8::MAX,
    }
}

/// The scheduling decision: always a member of `ready`, or `None` to
/// wait for the next arrival.
pub fn pick(ready: &[Choice], arrival_due: bool) -> Option<Choice> {
    if arrival_due && ready.contains(&Choice::Inject) {
        return Some(Choice::Inject);
    }
    ready
        .iter()
        .copied()
        .filter(|c| *c != Choice::Inject)
        .min_by_key(|c| (priority(*c), *c))
}

/// One timed `step` call of the traced leg; `step_no` is its index.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: u8,
    /// View id (`viewmgr.handle`, `source.answer_query`,
    /// `core.on_action`) or merge group.
    pub id: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct PacedRun {
    pub report: SimReport,
    /// End timestamp of the k-th `MpToWh` step = commit k of the log.
    pub commit_end_ns: Vec<u64>,
    /// Empty unless tracing.
    pub spans: Vec<Span>,
    /// First arrival due → last step finished.
    pub wall_ns: u64,
    /// Largest (injection start − due time): how late the generator ran.
    pub gen_late_max_ns: u64,
    /// When the last arrival was injected (for the end-of-run backlog).
    pub last_inject_ns: u64,
}

/// Arrival schedule. The first `warmup` updates of the pipeline's
/// workload are offered at once and drained before the clock starts
/// (untimed: they fill the views to the steady state the timed updates
/// then run in); timed update `i` is due `(i − warmup)/λ` after `t0`.
/// `rate = None` offers everything at once (λ = ∞, the single-thread
/// baseline).
#[derive(Clone, Copy)]
pub struct Arrivals {
    pub rate: Option<u64>,
    pub warmup: usize,
}

impl Arrivals {
    pub fn due_ns(&self, i: usize) -> u64 {
        match self.rate {
            Some(rate) if i >= self.warmup => {
                ((i - self.warmup) as u128 * 1_000_000_000 / u128::from(rate)) as u64
            }
            _ => 0,
        }
    }
}

/// Drive `pipe` (whose workload holds `n` transactions, warm-up
/// included) to quiescence.
pub fn run(
    mut pipe: Pipeline,
    n: usize,
    arrivals: Arrivals,
    trace: bool,
) -> Result<PacedRun, PipelineError> {
    let mut commit_end_ns = Vec::with_capacity(n);
    let mut next = 0usize;
    // Warm-up: λ = ∞ until nothing is deliverable. Its commits keep
    // their place in `commit_end_ns` (the index is the commit number).
    while let Some(choice) = pick(&pipe.ready()?, next < arrivals.warmup) {
        if choice == Choice::Inject {
            next += 1;
        }
        pipe.step(choice)?;
        if kind_of(choice).0 == KIND_APPLY {
            commit_end_ns.push(0);
        }
    }

    let mut spans = Vec::with_capacity(if trace { (n - next) * 12 } else { 0 });
    let mut gen_late_max_ns = 0u64;
    let mut last_inject_ns = 0u64;
    let t0 = Instant::now();
    let now_ns = || t0.elapsed().as_nanos() as u64;
    loop {
        let ready = pipe.ready()?;
        if ready.is_empty() {
            break;
        }
        let now = now_ns();
        let due = next < n && now >= arrivals.due_ns(next);
        let Some(choice) = pick(&ready, due) else {
            let wake = arrivals.due_ns(next);
            while now_ns() < wake {
                std::hint::spin_loop();
            }
            continue;
        };
        let (kind, id) = kind_of(choice);
        if choice == Choice::Inject {
            gen_late_max_ns = gen_late_max_ns.max(now - arrivals.due_ns(next));
            next += 1;
            last_inject_ns = now;
        }
        let start = if trace { now_ns() } else { 0 };
        pipe.step(choice)?;
        if trace || kind == KIND_APPLY {
            let end = now_ns();
            if kind == KIND_APPLY {
                commit_end_ns.push(end);
            }
            if trace {
                spans.push(Span {
                    kind,
                    id,
                    start_ns: start,
                    end_ns: end,
                });
            }
        }
    }
    let wall_ns = now_ns();
    Ok(PacedRun {
        report: pipe.finish()?,
        commit_end_ns,
        spans,
        wall_ns,
        gen_late_max_ns,
        last_inject_ns,
    })
}

/// Update indices (0-based injection order) covered by each commit of
/// the report's log: `commit_log[k].rows → group_updates → GlobalSeq →`
/// position in the source history.
pub fn commit_rows(report: &SimReport) -> Vec<Vec<usize>> {
    let index_of: BTreeMap<_, usize> = report
        .cluster
        .history()
        .iter()
        .enumerate()
        .map(|(i, u)| (u.seq, i))
        .collect();
    report
        .commit_log
        .iter()
        .map(|e| {
            e.rows
                .iter()
                .filter_map(|id| report.group_updates[e.group].get(id))
                .filter_map(|seq| index_of.get(seq).copied())
                .collect()
        })
        .collect()
}

/// When each update first became visible: the end of the first commit
/// step whose rows cover it (`None` = no commit ever did).
pub fn first_visible_ns(commit_end_ns: &[u64], rows: &[Vec<usize>], n: usize) -> Vec<Option<u64>> {
    let mut first = vec![None; n];
    for (end, covered) in commit_end_ns.iter().zip(rows) {
        for &i in covered {
            if i < n && first[i].is_none() {
                first[i] = Some(*end);
            }
        }
    }
    first
}

/// Update→visible latency per covered timed update, ascending:
/// first-visible time minus the update's **due** time (not its injection
/// time, so a stall is charged to every arrival it delays).
pub fn visible_latencies(first_visible: &[Option<u64>], arrivals: Arrivals) -> Vec<u64> {
    let mut lat: Vec<u64> = first_visible
        .iter()
        .enumerate()
        .skip(arrivals.warmup)
        .filter_map(|(i, t)| t.map(|t| t.saturating_sub(arrivals.due_ns(i))))
        .collect();
    lat.sort_unstable();
    lat
}

/// Earlier timed arrivals still invisible when the last one was
/// injected: a backlog near 0 means the offered rate was sustained.
pub fn backlog_at(first_visible: &[Option<u64>], arrivals: Arrivals, last_inject_ns: u64) -> usize {
    let earlier = &first_visible[..first_visible.len().saturating_sub(1)];
    earlier
        .iter()
        .skip(arrivals.warmup)
        .filter(|t| !t.is_some_and(|t| t <= last_inject_ns))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, workloads::WORKLOADS};
    use mvc_analysis::{PipelineBuilder, PipelineConfig};
    use mvc_core::ViewId;

    #[test]
    fn latency_mapping_on_a_hand_written_schedule() {
        // 5 updates at λ = 1000/s: due at 0, 1, 2, 3, 4 ms.
        let arrivals = Arrivals {
            rate: Some(1000),
            warmup: 0,
        };
        // commit 0 covers u0; commit 1 batches u1+u2; commit 2 covers u2
        // again (must not count twice) and u3; u4 is never covered.
        let ends = [500_000, 2_700_000, 3_900_000];
        let rows = [vec![0], vec![1, 2], vec![2, 3]];
        let first = first_visible_ns(&ends, &rows, 5);
        assert_eq!(
            first,
            vec![
                Some(500_000),
                Some(2_700_000),
                Some(2_700_000),
                Some(3_900_000),
                None
            ]
        );
        // u0: 0.5 ms, u1: 1.7 ms, u2: 0.7 ms, u3: 0.9 ms
        assert_eq!(
            visible_latencies(&first, arrivals),
            vec![500_000, 700_000, 900_000, 1_700_000]
        );
        // λ = ∞: every update is due at t0.
        assert_eq!(
            visible_latencies(
                &first,
                Arrivals {
                    rate: None,
                    warmup: 0
                }
            ),
            vec![500_000, 2_700_000, 2_700_000, 3_900_000]
        );
        // with u0 and u1 as warm-up, u2 is due at t0 and u3 1 ms later
        let warm = Arrivals {
            rate: Some(1000),
            warmup: 2,
        };
        assert_eq!(visible_latencies(&first, warm), vec![2_700_000, 2_900_000]);
        assert_eq!(backlog_at(&first, warm, 1_000_000), 2);
        // last arrival injected at 3 ms: u3 (3.9 ms) is still in flight.
        assert_eq!(backlog_at(&first, arrivals, 3_000_000), 1);
        assert_eq!(backlog_at(&first, arrivals, 1_000_000), 3);
    }

    #[test]
    fn pick_only_returns_ready_choices_and_prefers_downstream() {
        let v = |i| ViewId(i);
        let all = [
            Choice::Inject,
            Choice::Deliver(ChanId::SrcToInt),
            Choice::Deliver(ChanId::IntToVm(v(2))),
            Choice::Deliver(ChanId::IntToVm(v(1))),
            Choice::Deliver(ChanId::IntToMp(0)),
            Choice::Deliver(ChanId::VmToMp(v(3))),
            Choice::Deliver(ChanId::VmToQs(v(1))),
            Choice::Deliver(ChanId::MpToWh(0)),
            Choice::Deliver(ChanId::WhToMp(0)),
        ];
        // every subset, both arrival states
        for mask in 0u32..(1 << all.len()) {
            let ready: Vec<Choice> = (0..all.len())
                .filter(|b| mask & (1 << b) != 0)
                .map(|b| all[b])
                .collect();
            for due in [false, true] {
                match pick(&ready, due) {
                    Some(c) => assert!(ready.contains(&c), "{c:?} not in {ready:?}"),
                    None => assert!(
                        ready.iter().all(|c| *c == Choice::Inject),
                        "idle with deliverable work in {ready:?}"
                    ),
                }
            }
        }
        assert_eq!(pick(&all, true), Some(Choice::Inject));
        assert_eq!(pick(&all, false), Some(Choice::Deliver(ChanId::MpToWh(0))));
        assert_eq!(
            pick(&all[..4], false),
            Some(Choice::Deliver(ChanId::IntToVm(v(1))))
        );
        assert_eq!(pick(&[Choice::Inject], false), None);
    }

    /// The scheduler on a real pipeline: `Pipeline::step` fails typed on
    /// a choice that is not enabled, so a clean run to quiescence with
    /// every update visible proves no such step was made.
    #[test]
    fn scheduler_drives_every_workload_to_quiescence() {
        for w in &WORKLOADS {
            let n = 120;
            let txns = gen::generate(11, n, w.key_domain);
            let config = PipelineConfig {
                algorithm: w.algorithm,
                record_snapshots: false,
                ..PipelineConfig::default()
            };
            let b = gen::install(PipelineBuilder::new(config), &w.kinds).workload(txns);
            let arrivals = Arrivals {
                rate: Some(20_000),
                warmup: 40,
            };
            let out = run(b.build().unwrap(), n, arrivals, true).unwrap();
            let rows = commit_rows(&out.report);
            let first = first_visible_ns(&out.commit_end_ns, &rows, n);
            assert!(first.iter().all(Option::is_some), "{}", w.name);
            assert_eq!(visible_latencies(&first, arrivals).len(), n - 40);
            assert_eq!(out.commit_end_ns.len(), out.report.commit_log.len());
            assert!(out.spans.windows(2).all(|s| s[0].end_ns <= s[1].start_ns));
            assert!(out.wall_ns >= arrivals.due_ns(n - 1));
        }
    }
}
