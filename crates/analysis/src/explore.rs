//! Bounded exhaustive exploration of pipeline interleavings with
//! sleep-set partial-order reduction, every explored schedule certified
//! by the consistency oracle.
//!
//! # Soundness of the reduction
//!
//! Sleep sets prune schedules that are Mazurkiewicz-equivalent to one
//! already explored: at a node, after exploring choice `a`, any sibling
//! subtree that starts with a choice independent of everything explored
//! since would only permute independent steps. The reduction is sound
//! for *trace coverage* — every equivalence class of complete schedules
//! keeps at least one representative — provided the independence
//! relation under-approximates true commutativity. Ours is derived from
//! a static read/write footprint per choice (see [`Independence`]): two
//! choices are declared independent only when they touch disjoint
//! components, pop distinct channel heads, and push distinct channel
//! tails; FIFO head-pop and tail-push on the same channel commute
//! whenever the pop is enabled, so `Head(c)` and `Tail(c)` are distinct
//! footprint keys. Whatever one choice may do is over-approximated
//! (e.g. delivering a source update may route to *every* view and merge
//! group), which only adds dependence — less pruning, never unsoundness.

use crate::pipeline::{Pipeline, PipelineBuilder, PipelineError};
use crate::schedule::{ChanId, Choice, ScheduleId};
use mvc_core::{ConsistencyLevel, ViewId};
use mvc_whips::{Oracle, Verdict};
use std::collections::BTreeSet;

/// Static read/write footprint key of one choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    /// Source cluster state (writes by inject, reads by query answering).
    Cluster,
    /// Integrator routing state (update numbering).
    Integrator,
    Vm(ViewId),
    Mp(usize),
    /// Warehouse store + commit log + (broken-applier) reorder buffer —
    /// deliberately one key across merge groups: commit interleaving
    /// across groups is exactly what the oracle must see varied.
    Warehouse,
    Head(ChanId),
    Tail(ChanId),
}

/// The static independence relation over choices.
pub struct Independence {
    views: Vec<ViewId>,
    groups: usize,
    group_of: Vec<(ViewId, usize)>,
}

impl Independence {
    pub fn new(builder: &PipelineBuilder) -> Result<Self, PipelineError> {
        // A throwaway pipeline gives the authoritative view→group map.
        let pipe = builder.build()?;
        let views: Vec<ViewId> = builder.registry().ids().collect();
        let group_of = views.iter().map(|&v| (v, pipe.group_of_view(v))).collect();
        Ok(Independence {
            views,
            groups: pipe.groups(),
            group_of,
        })
    }

    fn group_of(&self, v: ViewId) -> usize {
        self.group_of
            .iter()
            .find(|(w, _)| *w == v)
            .map(|(_, g)| *g)
            .unwrap_or(0)
    }

    fn keys(&self, c: Choice) -> BTreeSet<Key> {
        let mut k = BTreeSet::new();
        match c {
            Choice::Inject => {
                k.insert(Key::Cluster);
                k.insert(Key::Tail(ChanId::SrcToInt));
            }
            Choice::Deliver(ch) => {
                k.insert(Key::Head(ch));
                match ch {
                    ChanId::SrcToInt => {
                        // Routing may reach every view and merge group —
                        // over-approximate the fan-out.
                        k.insert(Key::Integrator);
                        for &v in &self.views {
                            k.insert(Key::Tail(ChanId::IntToVm(v)));
                        }
                        for g in 0..self.groups {
                            k.insert(Key::Tail(ChanId::IntToMp(g)));
                        }
                    }
                    ChanId::IntToVm(v) => {
                        k.insert(Key::Vm(v));
                        k.insert(Key::Tail(ChanId::VmToMp(v)));
                        k.insert(Key::Tail(ChanId::VmToQs(v)));
                    }
                    ChanId::IntToMp(g) => {
                        k.insert(Key::Mp(g));
                        k.insert(Key::Tail(ChanId::MpToWh(g)));
                    }
                    ChanId::VmToMp(v) => {
                        let g = self.group_of(v);
                        k.insert(Key::Mp(g));
                        k.insert(Key::Tail(ChanId::MpToWh(g)));
                    }
                    ChanId::VmToQs(v) => {
                        let _ = v;
                        k.insert(Key::Cluster);
                        k.insert(Key::Tail(ChanId::SrcToInt));
                    }
                    ChanId::MpToWh(g) => {
                        k.insert(Key::Warehouse);
                        k.insert(Key::Tail(ChanId::WhToMp(g)));
                    }
                    ChanId::WhToMp(g) => {
                        k.insert(Key::Mp(g));
                        k.insert(Key::Tail(ChanId::MpToWh(g)));
                    }
                }
            }
        }
        k
    }

    /// Conservative dependence: overlapping footprints.
    pub fn dependent(&self, a: Choice, b: Choice) -> bool {
        if a == b {
            return true;
        }
        let ka = self.keys(a);
        self.keys(b).iter().any(|k| ka.contains(k))
    }

    pub fn independent(&self, a: Choice, b: Choice) -> bool {
        !self.dependent(a, b)
    }
}

/// Exploration bounds and switches.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum schedule length; longer prefixes are cut and counted as
    /// `truncated` (not certified — the run is incomplete).
    pub max_depth: usize,
    /// Stop after this many schedules (complete + truncated).
    pub max_schedules: u64,
    /// Sleep-set partial-order reduction on/off (off = naive DFS, for
    /// measuring the reduction).
    pub por: bool,
    /// Retain every complete schedule in
    /// [`ExploreOutcome::complete_schedules`] — the durable explorer's
    /// work list. Off by default: exhaustive runs can visit tens of
    /// thousands of schedules.
    pub collect: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_depth: 80,
            max_schedules: 20_000,
            por: true,
            collect: false,
        }
    }
}

/// One oracle violation found during exploration, with the replayable
/// schedule that produced it.
#[derive(Debug, Clone)]
pub struct ScheduleViolation {
    pub schedule: ScheduleId,
    pub group: usize,
    pub level: ConsistencyLevel,
    pub detail: String,
}

/// Aggregate result of one bounded exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreOutcome {
    /// Complete (quiescent, fully flushed) schedules explored.
    pub complete: u64,
    /// Complete schedules the oracle certified at the guaranteed level.
    pub certified: u64,
    pub violations: Vec<ScheduleViolation>,
    /// Schedules cut by the depth bound.
    pub truncated: u64,
    /// Exploration stopped at `max_schedules`.
    pub capped: bool,
    /// Longest prefix reached.
    pub max_depth_seen: usize,
    /// Enabled choices skipped by the sleep sets (the reduction).
    pub sleep_skips: u64,
    /// Every complete schedule, in exploration order (only populated
    /// with [`ExploreConfig::collect`]).
    pub complete_schedules: Vec<ScheduleId>,
}

impl ExploreOutcome {
    /// Every complete schedule certified and none violated.
    pub fn all_certified(&self) -> bool {
        self.complete == self.certified && self.violations.is_empty()
    }

    pub fn schedules(&self) -> u64 {
        self.complete + self.truncated
    }
}

/// DFS node: candidate choices (enabled minus inherited sleep set) and
/// the live sleep set, which absorbs each candidate after its subtree.
struct Frame {
    cands: Vec<Choice>,
    next: usize,
    sleep: Vec<Choice>,
}

/// Exhaustively explore interleavings of the builder's pipeline within
/// the configured bounds, certifying every complete schedule with the
/// consistency oracle.
///
/// Pipeline state is not cloneable (view managers are trait objects), so
/// the DFS steps incrementally while descending and replays the prefix
/// from a fresh build when switching siblings — replay is cheap at the
/// workload sizes exhaustive exploration can reach anyway.
///
/// ```
/// use mvc_analysis::{explore, ExploreConfig, PipelineBuilder, PipelineConfig};
/// use mvc_core::ViewId;
/// use mvc_relational::{tuple, Schema, ViewDef};
/// use mvc_source::{SourceId, WriteOp};
/// use mvc_whips::sim::WorkloadTxn;
/// use mvc_whips::ManagerKind;
///
/// let mut b = PipelineBuilder::new(PipelineConfig::default())
///     .relation(SourceId(0), "R", Schema::ints(&["a", "b"]));
/// let v = ViewDef::builder("V").from("R").build(b.catalog()).unwrap();
/// let b = b.view(ViewId(1), v, ManagerKind::Complete).workload(vec![WorkloadTxn {
///     source: SourceId(0),
///     writes: vec![WriteOp::insert("R", tuple![1, 2])],
///     global: false,
/// }]);
/// let out = explore(&b, &ExploreConfig::default()).unwrap();
/// assert!(out.complete > 0);
/// assert!(out.all_certified());
/// ```
pub fn explore(
    builder: &PipelineBuilder,
    config: &ExploreConfig,
) -> Result<ExploreOutcome, PipelineError> {
    let indep = Independence::new(builder)?;
    let mut out = ExploreOutcome::default();

    let mut first = builder.build()?;
    let root_enabled = first.ready()?;
    if root_enabled.is_empty() {
        // Empty workload: the single empty schedule.
        certify(first, &ScheduleId::default(), &mut out, config.collect)?;
        return Ok(out);
    }

    let mut state: Option<Pipeline> = Some(first);
    let mut prefix: Vec<Choice> = Vec::new();
    let mut stack = vec![Frame {
        cands: root_enabled,
        next: 0,
        sleep: Vec::new(),
    }];

    while let Some(top) = stack.last_mut() {
        if top.next >= top.cands.len() {
            stack.pop();
            if prefix.pop().is_some() {
                state = None;
            }
            continue;
        }
        if out.schedules() >= config.max_schedules {
            out.capped = true;
            break;
        }

        let choice = top.cands[top.next];
        top.next += 1;
        let child_sleep: Vec<Choice> = if config.por {
            top.sleep
                .iter()
                .copied()
                .filter(|&t| indep.independent(t, choice))
                .collect()
        } else {
            Vec::new()
        };
        if config.por {
            top.sleep.push(choice);
        }

        let mut pipe = match state.take() {
            Some(p) => p,
            None => replay_prefix(builder, &prefix)?,
        };
        pipe.step(choice)?;
        prefix.push(choice);
        out.max_depth_seen = out.max_depth_seen.max(prefix.len());

        if prefix.len() >= config.max_depth {
            out.truncated += 1;
            prefix.pop();
            continue;
        }

        let enabled = pipe.ready()?;
        if enabled.is_empty() {
            certify(pipe, &ScheduleId(prefix.clone()), &mut out, config.collect)?;
            prefix.pop();
            continue;
        }

        let cands: Vec<Choice> = enabled
            .iter()
            .copied()
            .filter(|c| !child_sleep.contains(c))
            .collect();
        out.sleep_skips += (enabled.len() - cands.len()) as u64;
        if cands.is_empty() {
            // Every enabled choice is asleep: this node's subtrees are all
            // equivalent to already-explored schedules.
            prefix.pop();
            continue;
        }
        state = Some(pipe);
        stack.push(Frame {
            cands,
            next: 0,
            sleep: child_sleep,
        });
    }

    Ok(out)
}

fn replay_prefix(builder: &PipelineBuilder, prefix: &[Choice]) -> Result<Pipeline, PipelineError> {
    let mut pipe = builder.build()?;
    pipe.replay(prefix)?;
    Ok(pipe)
}

fn certify(
    pipe: Pipeline,
    schedule: &ScheduleId,
    out: &mut ExploreOutcome,
    collect: bool,
) -> Result<(), PipelineError> {
    out.complete += 1;
    if collect {
        out.complete_schedules.push(schedule.clone());
    }
    let report = pipe.finish()?;
    let oracle = Oracle::new(&report).map_err(|e| PipelineError::Step {
        choice: "oracle".to_string(),
        detail: e.to_string(),
    })?;
    let mut violated = false;
    for (group, level, verdict) in oracle.check_report() {
        if let Verdict::Violated { detail, .. } = verdict {
            violated = true;
            out.violations.push(ScheduleViolation {
                schedule: schedule.clone(),
                group,
                level,
                detail,
            });
        }
    }
    if !violated {
        out.certified += 1;
    }
    Ok(())
}
