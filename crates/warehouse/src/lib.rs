//! # mvc-warehouse
//!
//! The warehouse tier of the MVC reproduction: materialized views, atomic
//! multi-view transactions (the merge process's `WT`s and `BWT`s of §4.3),
//! commit-history recording for the consistency oracle, and consistent
//! multi-view reads (§1.1's customer-inquiry access pattern).
//!
//! This crate instantiates `mvc-core`'s opaque action-list payload with
//! the relational [`ViewDelta`].

#![forbid(unsafe_code)]

pub mod shard;
pub mod store;

pub use shard::{merge_shards, ShardInput, ShardMerge, ShardMergeError};
pub use store::{
    CommittedTxn, StoreTxn, ViewDelta, Warehouse, WarehouseAction, WarehouseError,
    WarehouseSnapshot,
};
