//! # mvc-relational
//!
//! Bag-relational engine underpinning the MVC warehouse reproduction:
//! values, tuples, schemas, multiset relations, scalar expressions,
//! select-project-join and aggregate view definitions, a hash-join
//! evaluator, and exact incremental view maintenance (the counting/delta
//! rule the paper's view managers rely on).
//!
//! Everything here is deterministic: relations iterate in sorted order so
//! higher layers can pin golden outputs byte-for-byte.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod database;
pub mod delta;
pub mod eval;
pub mod expr;
pub mod index;
pub mod maintain;
pub mod relation;
pub mod schema;
pub mod sql;
pub mod tuple;
pub mod value;
pub mod viewdef;

pub use catalog::Catalog;
pub use database::{Database, Overlay, RelationMut, StateProvider};
pub use delta::{Delta, TupleOp};
pub use eval::{
    diff, eval_core, eval_join, eval_join_with, eval_view, project_delta, project_tuple, EvalError,
    JoinInput,
};
pub use expr::{ArithOp, CmpOp, Expr, ExprError};
pub use index::JoinIndex;
pub use relation::Relation;
pub use schema::{Attribute, RelationName, Schema, SchemaError};
pub use sql::{parse_view, SqlError};
pub use tuple::Tuple;
pub use value::{Value, ValueType};
pub use viewdef::{AggFunc, Aggregate, SpjCore, ViewDef, ViewDefBuilder, ViewName};
