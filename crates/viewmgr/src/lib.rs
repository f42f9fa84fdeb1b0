//! # mvc-viewmgr
//!
//! View managers for the MVC warehouse: one concurrent process per view
//! (Figure 1), each computing action lists at a declared single-view
//! consistency level:
//!
//! * [`CompleteVm`] — one AL per update via exact as-of delta queries
//!   (complete, §2.2);
//! * [`StrobeVm`] — current-state queries with compensation, batching
//!   intertwined updates into one AL (strongly consistent, ref \[17\]);
//! * [`PeriodicVm`] — full recomputation every N updates (appears
//!   strongly consistent, §6.3);
//! * [`ConvergentVm`] — uncompensated estimates plus correction passes
//!   (convergent, §6.3);
//! * [`CompleteNVm`] — exact batches of N (complete-N, §6.3).
//!
//! All managers are event-driven state machines over the
//! [`protocol`] message types; runtimes inject every delay, which is what
//! makes intertwining — and therefore the MVC problem — real.

#![forbid(unsafe_code)]

pub mod complete;
pub mod complete_n;
pub mod convergent;
pub mod eca;
mod join_mirror;
pub mod materialized;
pub mod periodic;
pub mod protocol;
pub mod selfmaint;
pub mod strobe;

pub use complete::CompleteVm;
pub use complete_n::CompleteNVm;
pub use convergent::ConvergentVm;
pub use eca::EcaVm;
pub use materialized::MaterializedView;
pub use periodic::PeriodicVm;
pub use protocol::{
    answer_query, NumberedUpdate, QueryAnswer, QueryRequest, QueryToken, ViewManager, VmError,
    VmEvent, VmOutput,
};
pub use selfmaint::SelfMaintVm;
pub use strobe::StrobeVm;

/// The concrete action-list type every manager emits: routing metadata
/// plus a relational view delta.
pub type ActionListDelta = mvc_core::ActionList<mvc_relational::Delta>;
