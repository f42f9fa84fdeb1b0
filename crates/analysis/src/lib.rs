//! # mvc-analysis
//!
//! Protocol analysis toolchain for the MVC reproduction. Five pillars:
//!
//! * the **pipeline** ([`pipeline`]): the explorer-owned scheduler over
//!   the Figure 1 state machine (`mvc_whips::machine`), every scheduler
//!   decision exposed as a named, replayable [`schedule::Choice`];
//! * the **schedule explorer** ([`mod@explore`]): bounded exhaustive DFS
//!   over interleavings with sleep-set partial-order reduction, each
//!   complete schedule certified by the consistency oracle and each
//!   violation serialized as a replayable [`schedule::ScheduleId`];
//! * the **durable explorer** ([`durable`]): every complete schedule the
//!   explorer certifies is replayed on a WAL-journaling pipeline and
//!   crash-recovered at every record prefix of its log, the stitched
//!   history certified again — scheduling nondeterminism × crash points
//!   in one sweep;
//! * the **protocol lint** ([`lint`]): a hand-rolled token-level scanner
//!   enforcing this repo's concurrency hygiene rules (see the
//!   `protocol_lint` binary);
//! * the **lock-manifest lint** ([`locklint`]): checks the pipeline
//!   crates' audited-lock constructions and statically visible
//!   acquisition nesting against the declared order in
//!   `analysis/locks.toml` (see the `lock_lint` binary) — the static
//!   complement of the runtime lockdep graph in `mvc_core::lock`.
//!
//! Everything is self-contained and offline: no solver, no external
//! model checker, no new dependencies.

#![forbid(unsafe_code)]

pub mod durable;
pub mod explore;
pub mod lint;
pub mod locklint;
pub mod pipeline;
pub mod schedule;

pub use durable::{explore_durably, DurableExploreConfig, DurableExploreOutcome, PrefixFailure};
pub use explore::{explore, ExploreConfig, ExploreOutcome, Independence, ScheduleViolation};
pub use lint::{lint_file, lint_tree, LintFinding, Rule};
pub use locklint::{lock_lint_file, lock_lint_tree, LockLintFinding, LockManifest, LockRule};
pub use pipeline::{Breakage, Pipeline, PipelineBuilder, PipelineConfig, PipelineError};
pub use schedule::{ChanId, Choice, ScheduleId, ScheduleParseError};
