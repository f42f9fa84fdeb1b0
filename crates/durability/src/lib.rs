//! # mvc-durability
//!
//! Durability subsystem for the MVC pipeline: an append-only, checksummed,
//! length-prefixed binary write-ahead log ([`wal`]) recording every
//! pipeline state transition as a typed record ([`record`]), periodic full
//! checkpoints of warehouse + merge-process state ([`checkpoint`]), and
//! the fault-injection knobs (kill-at-record-N, torn-write truncation,
//! delayed fsync) the crash-recovery tests drive.
//!
//! The recovery *scan* itself lives in `mvc-whips` (`recovery` module),
//! which owns the runtime types being reconstructed; this crate owns the
//! on-disk format and the log discipline:
//!
//! * **log-ahead** — a record is appended before the in-memory transition
//!   it describes, so the log is always ahead of (or equal to) the state;
//! * **idempotent replay** — commits are deduplicated by `(group, seq)`
//!   and engine inputs by `UpdateId`, so a group is never double-applied;
//! * **torn-tail tolerance** — an incomplete trailing frame is a clean
//!   end-of-log, while a checksum mismatch on a complete frame is a typed
//!   [`WalError::CorruptRecord`], never a silent truncation.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod codec;
pub mod record;
pub mod wal;

pub use checkpoint::{CheckpointState, CommitRecord, RoutedUpdate};
pub use codec::{from_bytes, to_bytes, Codec, CodecError, Reader};
pub use record::WalRecord;
pub use wal::{
    checksum, DurabilityConfig, FaultSpec, FlushTicket, KillMode, LogContents, WalError, WalReader,
    WalWriter, WAL_MAGIC,
};
