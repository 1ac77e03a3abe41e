//! # stream-query
//!
//! The stream query-processing engine of the paper's Fig. 1, built on
//! skimmed sketches: one-pass `COUNT` / `SUM` / `AVERAGE` over the join of
//! two update streams, with selection predicates applied before the
//! synopses, and the chain multi-join extension of Dobra et al. that §1/§6 of the paper
//! point to.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod continuous;
pub mod engine;
pub mod groupby;
pub mod multijoin;
pub mod partitioned;
pub mod predicate;
pub mod record;
pub mod star;

pub use continuous::{ContinuousQuery, SeriesPoint};
pub use engine::{Aggregate, JoinQueryEngine, QueryAnswer, Side};
pub use groupby::GroupedJoin;
pub use multijoin::{estimate_chain_join, ChainJoinSchema, ChainRelationSketch};
pub use partitioned::{DomainPartition, PartitionedAgmsSketch, PartitionedSchema};
pub use predicate::Predicate;
pub use record::{Op, Record};
pub use star::{estimate_star_join, StarCenterSketch, StarEdgeSketch, StarJoinSchema};
