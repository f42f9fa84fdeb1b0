//! # mvc-whips
//!
//! WHIPS-style system assembly for the MVC reproduction: the integrator
//! (§3.2), the Figure 1 architecture as one explicit state machine
//! ([`machine`]) with a deterministic seeded scheduler over it ([`sim`]),
//! a threaded runtime (one OS thread per process over crossbeam FIFO
//! channels), workload generators, metrics for the §7 experiments, the
//! consistency oracle that machine-checks the §2 definitions, and canned
//! scenarios reproducing the paper's worked examples.

#![forbid(unsafe_code)]

pub mod integrator;
pub mod machine;
pub mod metrics;
pub mod obs;
pub mod oracle;
pub mod recovery;
pub mod registry;
pub mod scenario;
pub mod shard;
pub mod sim;
pub mod threaded;
pub mod transitions;
pub mod workload;

pub use integrator::{GroupRouting, Integrator};
pub use machine::{ChanId, Choice};
// Re-exported so oracle users can name the read-certification types
// without a direct mvc-readpath dependency.
pub use metrics::SimMetrics;
pub use mvc_readpath::{ReadCertificate, ReadObservation, ReadViolation};
pub use obs::{Histogram, PipelineObs, QueueGauge};
pub use oracle::{Oracle, ShardViolation, Verdict};
pub use recovery::{recover_and_run, RecoveryError};
pub use registry::{ManagerKind, ViewEntry, ViewRegistry};
pub use shard::{ReadFrontier, ShardPlane, ShardReport, ShardTopology, ShardWatermarks};
pub use sim::{
    CommitLogEntry, DurableOutcome, SimBuilder, SimConfig, SimError, SimReport, WorkloadTxn,
};
pub use threaded::{ThreadedBuilder, ThreadedConfig, WallClock};
pub use workload::{Deployment, GeneratedWorkload, ViewSuite, WorkloadSpec};
